#include "src/runtime/accumulate.h"

#include <cmath>

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
