#include "src/ctrl/slo.h"

#include <cmath>
#include <string>

#include "src/common/error.h"
#include "src/common/serde.h"

namespace ihbd::ctrl {

double SloHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    cumulative += buckets_[b];
    if (buckets_[b] == 0) continue;
    if (static_cast<double>(cumulative) >= target) {
      if (b + 1 == buckets_.size()) {
        // Last bucket is unbounded above: report its lower bound.
        return obs::Histogram::bucket_upper_bound(b - 1);
      }
      return obs::Histogram::bucket_upper_bound(b);
    }
  }
  return obs::Histogram::bucket_upper_bound(buckets_.size() - 2);
}

void SloHistogram::merge(const SloHistogram& other) {
  for (std::size_t b = 0; b < buckets_.size(); ++b)
    buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
}

void SloHistogram::save(serde::Writer& w) const {
  w.u64(count_);
  w.f64(sum_);
  // Sparse encoding: most buckets are empty for latency-shaped data.
  std::uint32_t nonzero = 0;
  for (const auto c : buckets_)
    if (c != 0) ++nonzero;
  w.u32(nonzero);
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    w.u32(static_cast<std::uint32_t>(b));
    w.u64(buckets_[b]);
  }
}

SloHistogram SloHistogram::load(serde::Reader& r) {
  SloHistogram h;
  h.count_ = r.u64();
  h.sum_ = r.f64();
  const std::uint32_t nonzero = r.u32();
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < nonzero; ++i) {
    const std::uint32_t b = r.u32();
    if (b >= h.buckets_.size()) {
      throw ConfigError("SloHistogram::load: bucket index " +
                        std::to_string(b) + " >= bucket count " +
                        std::to_string(h.buckets_.size()));
    }
    // total stays the sum of buckets_ and never passes count_, so the
    // subtraction cannot wrap and a repeated index cannot hide a mismatch.
    const std::uint64_t n = r.u64();
    if (n > h.count_ - total) {
      throw ConfigError("SloHistogram::load: buckets sum past count " +
                        std::to_string(h.count_));
    }
    h.buckets_[b] += n;
    total += n;
  }
  if (total != h.count_) {
    throw ConfigError("SloHistogram::load: buckets sum to " +
                      std::to_string(total) + ", count is " +
                      std::to_string(h.count_));
  }
  return h;
}

}  // namespace ihbd::ctrl
