#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/contracts.h"

namespace ihbd {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

double percentile_sorted(std::span<const double> sorted, double q) {
  IHBD_EXPECTS(!sorted.empty());
  IHBD_EXPECTS(q >= 0.0 && q <= 100.0);
  if (sorted.size() == 1) return sorted.front();
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double percentile(std::span<const double> xs, double q) {
  IHBD_EXPECTS(!xs.empty());
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, q);
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  s.count = xs.size();
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  // One sort serves min/max and all three percentile reads (the old
  // per-percentile copy+sort tripled the dominant cost on large samples).
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.p50 = percentile_sorted(sorted, 50.0);
  s.p90 = percentile_sorted(sorted, 90.0);
  s.p99 = percentile_sorted(sorted, 99.0);
  return s;
}

std::vector<CdfPoint> empirical_cdf(std::span<const double> xs) {
  std::vector<CdfPoint> cdf;
  if (xs.empty()) return cdf;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  cdf.reserve(sorted.size());
  const double n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cdf.push_back({sorted[i], static_cast<double>(i + 1) / n});
  }
  return cdf;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  IHBD_EXPECTS(bins >= 1);
  IHBD_EXPECTS(lo < hi);
}

void Histogram::add(double x) {
  // NaN compares false against both range guards and would reach the bin
  // cast below with an unrepresentable value (UB); count it separately.
  if (std::isnan(x)) {
    ++nan_count_;
    return;
  }
  std::size_t bin;
  if (x < lo_) {
    bin = 0;
  } else if (x >= hi_) {
    bin = counts_.size() - 1;
  } else {
    bin = static_cast<std::size_t>((x - lo_) / width_);
    if (bin >= counts_.size()) bin = counts_.size() - 1;
  }
  ++counts_[bin];
  ++total_;
}

double Histogram::bin_center(std::size_t bin) const {
  IHBD_EXPECTS(bin < counts_.size());
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::bin_lo(std::size_t bin) const {
  IHBD_EXPECTS(bin < counts_.size());
  return lo_ + static_cast<double>(bin) * width_;
}

std::string Histogram::to_string(int max_bar) const {
  std::ostringstream os;
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%8.3f..%-8.3f %6zu ", bin_lo(b),
                  bin_lo(b) + width_, counts_[b]);
    os << buf;
    const int bar = static_cast<int>(
        static_cast<double>(counts_[b]) / static_cast<double>(peak) * max_bar);
    for (int i = 0; i < bar; ++i) os << '#';
    os << '\n';
  }
  return os.str();
}

Summary TimeSeries::summarize_values() const { return summarize(v); }

}  // namespace ihbd
