#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/csv.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"

namespace ihbd {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, GoldenStream) {
  // Pins the raw xoshiro256** stream and the two uniform() forms bit for
  // bit. Seed 2025 is ctrl::ControlPlaneConfig's default; [60, 80] us is
  // the OCS switch-latency draw.
  Rng rng(2025);
  const std::uint64_t next[] = {
      0xc9fcbf65c046112full, 0x7b7b3399e150a198ull, 0x68f6f146f11e19c1ull,
      0x8f605909bbb633b2ull, 0xf617e11f1f2850e6ull, 0x3c0714d5f42f7fc9ull,
      0x821615f2a0bbf413ull, 0x706d54935489dfc9ull};
  for (const std::uint64_t v : next) EXPECT_EQ(rng.next(), v);
  const std::uint64_t unit[] = {0x3fecabd285dbc99full, 0x3fe0a7aa9b0694faull,
                                0x3fc0a8d26791bd64ull, 0x3fdab62e56df66e0ull};
  for (const std::uint64_t v : unit)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.uniform()), v);
  const std::uint64_t latency[] = {0x3f14166e36481073ull,
                                   0x3f141d865808ee56ull,
                                   0x3f13cd3a25a829b9ull,
                                   0x3f11228404c4918bull};
  for (const std::uint64_t v : latency)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.uniform(60e-6, 80e-6)), v);
  EXPECT_DEATH(rng.uniform(1.0, 0.0), "lo <= hi");
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    if (v == -2) saw_lo = true;
    if (v == 2) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, LognormalMedian) {
  Rng rng(19);
  std::vector<double> xs;
  for (int i = 0; i < 50001; ++i) xs.push_back(rng.lognormal(0.5, 0.8));
  EXPECT_NEAR(percentile(xs, 50.0), std::exp(0.5), 0.05);
}

TEST(Rng, PoissonMean) {
  Rng rng(23);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(6.5));
  EXPECT_NEAR(sum / n, 6.5, 0.1);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ForkIndependence) {
  Rng a(31);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

TEST(Stats, MeanAndStddev) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
}

TEST(Stats, EmptyInputs) {
  std::vector<double> xs;
  EXPECT_DOUBLE_EQ(mean(xs), 0.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
  EXPECT_EQ(summarize(xs).count, 0u);
  EXPECT_TRUE(empirical_cdf(xs).empty());
}

TEST(Stats, PercentileInterpolation) {
  std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Stats, PercentileSingleElement) {
  std::vector<double> xs{7.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 99.0), 7.0);
}

TEST(Stats, SummaryFields) {
  std::vector<double> xs{5, 1, 4, 2, 3};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(Stats, EmpiricalCdfMonotone) {
  std::vector<double> xs{3, 1, 2, 2, 5};
  const auto cdf = empirical_cdf(xs);
  ASSERT_EQ(cdf.size(), 5u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].cum_prob, cdf[i].cum_prob);
  }
  EXPECT_DOUBLE_EQ(cdf.back().cum_prob, 1.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);   // clamps into bin 0
  h.add(0.5);
  h.add(9.99);
  h.add(100.0);  // clamps into last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

TEST(Histogram, NanIsCountedSeparatelyNotBinned) {
  // Regression: NaN fell through both range guards into the bin cast (UB).
  Histogram h(0.0, 10.0, 10);
  h.add(std::nan(""));
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.nan_count(), 1u);
  for (std::size_t b = 0; b < h.bin_count(); ++b) EXPECT_EQ(h.count(b), 0u);
  h.add(5.0);
  h.add(-std::nan(""));
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.nan_count(), 2u);
  EXPECT_EQ(h.count(5), 1u);
}

TEST(Histogram, UpperEdgeClampsIntoLastBin) {
  // Bins are half-open [lo, hi), but x == hi is documented to clamp into
  // the last bin rather than being dropped.
  Histogram h(0.0, 10.0, 10);
  h.add(10.0);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 1u);
  // Infinities follow the same clamping as any out-of-range value.
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.nan_count(), 0u);
}

TEST(Histogram, ToStringContainsBars) {
  Histogram h(0.0, 1.0, 2);
  for (int i = 0; i < 10; ++i) h.add(0.25);
  const std::string s = h.to_string();
  EXPECT_NE(s.find('#'), std::string::npos);
}

TEST(Table, RendersHeaderAndRows) {
  Table t("Demo");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, FormattingHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
}

TEST(Table, CsvEscaping) {
  Table t;
  t.set_header({"x,y", "plain"});
  t.add_row({"a\"b", "c"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"a\"\"b\""), std::string::npos);
}

TEST(Csv, WritesFile) {
  Table t;
  t.set_header({"col"});
  t.add_row({"42"});
  EXPECT_TRUE(write_csv(::testing::TempDir(), "ihbd_csv_test", t));
  EXPECT_TRUE(write_csv("", "noop", t));  // empty dir is a no-op success
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::gbps_to_GBps(800.0), 100.0);
  EXPECT_DOUBLE_EQ(units::GBps_to_gbps(100.0), 800.0);
  EXPECT_DOUBLE_EQ(units::us(80.0), 80e-6);
  EXPECT_DOUBLE_EQ(units::to_us(80e-6), 80.0);
}

}  // namespace
}  // namespace ihbd
