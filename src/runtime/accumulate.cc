#include "src/runtime/accumulate.h"

#include <cmath>

#include "src/common/error.h"
#include "src/common/serde.h"

namespace ihbd::runtime {

void Accumulator::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
  if (keep_samples_) samples_.push_back(x);
}

void Accumulator::save(serde::Writer& w) const {
  w.u64(count_);
  w.f64(mean_);
  w.f64(m2_);
  w.f64(min_);
  w.f64(max_);
  w.u8(keep_samples_ ? 1 : 0);
  w.f64_vec(samples_);
}

Accumulator Accumulator::load(serde::Reader& r) {
  Accumulator acc;
  acc.count_ = static_cast<std::size_t>(r.u64());
  acc.mean_ = r.f64();
  acc.m2_ = r.f64();
  acc.min_ = r.f64();
  acc.max_ = r.f64();
  acc.keep_samples_ = r.u8() != 0;
  acc.samples_ = r.f64_vec();
  if (acc.keep_samples_ ? acc.samples_.size() != acc.count_
                        : !acc.samples_.empty()) {
    throw ConfigError(
        "Accumulator::load: retained samples disagree with the retention "
        "flag");
  }
  return acc;
}

double Accumulator::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

Summary Accumulator::summary() const {
  // Complete-or-empty: any retained samples are every value added.
  if (!samples_.empty()) return summarize(samples_);
  Summary s;
  s.count = count_;
  s.mean = mean();
  s.stddev = stddev();
  s.min = min();
  s.max = max();
  s.p50 = s.p90 = s.p99 = mean();
  return s;
}

}  // namespace ihbd::runtime
