#include "src/ctrl/slo.h"

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

}  // namespace ihbd::ctrl
