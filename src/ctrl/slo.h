// Deterministic SLO histograms for the control plane.
//
// The ctrl.* obs histograms are process-global and summed over per-thread
// shards in unspecified FP order — perfect for monitoring, unusable as a
// bench table source when the table must be byte-identical across thread
// counts. SloHistogram is the local, value-typed counterpart: the SAME
// base-2 bucket layout as obs::Histogram (so a run folds its buckets into
// the global registry once, with obs::Histogram::add), but owned by one
// control-plane run, mergeable in trial order, and saved into
// ControlPlaneResult's bytes so the result digests cover it.
// Quantiles are bucket upper bounds — deterministic by construction, with
// base-2 resolution (plenty for p50/p99/p999 SLO rows).
#pragma once

#include <array>
#include <cstdint>

#include "src/obs/metrics.h"

namespace ihbd::serde {
class Writer;
}  // namespace ihbd::serde

namespace ihbd::ctrl {

/// Local fixed-layout histogram over positive doubles (seconds, depths).
/// Bucket layout is obs::Histogram's: 64 base-2 exponential buckets.
class SloHistogram {
 public:
  /// Record one observation (NaN is dropped, matching obs::Histogram).
  void observe(double x) {
    const std::size_t b = obs::Histogram::bucket_of(x);
    if (b >= obs::kHistogramBuckets) return;  // NaN sentinel
    ++buckets_[b];
    ++count_;
    sum_ += x;
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Per-bucket counts, in obs::Histogram's layout.
  const std::array<std::uint64_t, obs::kHistogramBuckets>& buckets() const {
    return buckets_;
  }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Smallest bucket upper bound covering at least ceil(q * count)
  /// observations (0 <= q <= 1). Returns 0 for an empty histogram; the
  /// last bucket reports its lower bound (its upper bound is +inf).
  double quantile(double q) const;

  /// Fold another histogram in (bucket-wise adds: associative and
  /// commutative except for the FP sum, which callers keep in trial order).
  void merge(const SloHistogram& other);

  /// Count, sum, then the non-empty buckets as (index, count) pairs.
  void save(serde::Writer& w) const;

 private:
  std::array<std::uint64_t, obs::kHistogramBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

}  // namespace ihbd::ctrl
