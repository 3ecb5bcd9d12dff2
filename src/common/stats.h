// Descriptive statistics used throughout the evaluation harness:
// summaries, percentiles, empirical CDFs, histograms and time series.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace ihbd {

/// Five-number-style summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Compute a Summary over a sample. Empty input yields a zero Summary.
Summary summarize(std::span<const double> xs);

/// Linear-interpolation percentile, q in [0, 100]. Requires non-empty input.
double percentile(std::span<const double> xs, double q);

/// percentile() for input that is already sorted ascending — skips the
/// per-call copy+sort, so one sort can serve many quantile reads (summarize
/// uses this for p50/p90/p99). Requires non-empty input.
double percentile_sorted(std::span<const double> sorted, double q);

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator); 0 for n < 2.
double stddev(std::span<const double> xs);

/// One point of an empirical CDF.
struct CdfPoint {
  double value = 0.0;
  double cum_prob = 0.0;  ///< P(X <= value)
};

/// Empirical CDF of the sample (sorted values with cumulative probability).
std::vector<CdfPoint> empirical_cdf(std::span<const double> xs);

/// Fixed-bin histogram.
class Histogram {
 public:
  /// Bins cover [lo, hi) uniformly with half-open [bin_lo, bin_lo + width)
  /// bins; values outside are clamped into the first/last bin (so x == hi,
  /// though outside the nominal half-open range, lands in the last bin).
  /// Requires bins >= 1 and lo < hi.
  Histogram(double lo, double hi, std::size_t bins);

  /// Bins `x` as documented above. NaN inputs fit no bin: they are counted
  /// in nan_count() only and excluded from total().
  void add(double x);

  std::size_t bin_count() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  /// Number of binned (non-NaN) values; always the sum over count(bin).
  std::size_t total() const { return total_; }
  /// Number of NaN inputs that were rejected by add().
  std::size_t nan_count() const { return nan_count_; }
  /// Center value of a bin.
  double bin_center(std::size_t bin) const;
  /// Lower edge of a bin.
  double bin_lo(std::size_t bin) const;

  /// Render as a one-line-per-bin ASCII bar chart.
  std::string to_string(int max_bar = 40) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t nan_count_ = 0;
};

/// A (time, value) series, e.g. fault ratio per day.
struct TimeSeries {
  std::vector<double> t;
  std::vector<double> v;

  void push(double time, double value) {
    t.push_back(time);
    v.push_back(value);
  }
  std::size_t size() const { return t.size(); }
  Summary summarize_values() const;
};

}  // namespace ihbd
