// Running statistics, the reduction primitive shared by the sweep engine
// (src/runtime/sweep.h) and the trace replay (src/topo/waste.h):
// count/mean/M2 (Welford) plus min/max, optionally retaining the raw
// samples so Summary percentiles are available.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "src/common/stats.h"

namespace ihbd::runtime {

// Sample retention is fixed at construction, so `samples_` is always either
// empty or a complete record of every add (the complete-or-empty
// invariant): summary() percentiles are never computed over a partial
// subset while count() says otherwise.
class Accumulator {
 public:
  /// Retains samples. Non-explicit so aggregates holding an Accumulator
  /// value-initialize with `{}`.
  Accumulator() = default;
  explicit Accumulator(bool keep_samples) : keep_samples_(keep_samples) {}

  void add(double x);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for n < 2.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  const std::vector<double>& samples() const { return samples_; }

  /// Full Summary. Percentiles require retained samples; without them the
  /// percentile fields are left at the mean (documented approximation).
  Summary summary() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  bool keep_samples_ = true;
  std::vector<double> samples_;
};

}  // namespace ihbd::runtime
