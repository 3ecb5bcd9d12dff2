#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/common/serde.h"
#include "src/common/stats.h"
#include "src/topo/waste.h"

namespace ihbd {
namespace {

TEST(Serde, PrimitiveRoundTrip) {
  serde::Writer w;
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1.5e300);
  w.f64_vec({1.0, -2.25, 3.5});

  serde::Reader r(w.buffer());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -1.5e300);
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.0, -2.25, 3.5}));
  EXPECT_TRUE(r.done());
  r.expect_done("primitives");
}

TEST(Serde, DoublesTravelByBitPattern) {
  const double nan = std::nan("0x5ca1e");
  const double inf = std::numeric_limits<double>::infinity();
  serde::Writer w;
  w.f64(nan);
  w.f64(-inf);
  w.f64(-0.0);
  serde::Reader r(w.buffer());
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.f64(), -inf);
  EXPECT_TRUE(std::signbit(r.f64()));
}

TEST(Serde, ReaderThrowsOnUnderflow) {
  serde::Writer w;
  w.u32(7);
  serde::Reader r(w.buffer());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u32(), ConfigError);

  // A length prefix larger than the remaining bytes must throw, not
  // allocate or read out of bounds.
  serde::Writer bad;
  bad.u64(1000);  // claims a 1000-element array with no bytes behind it
  serde::Reader rv(bad.buffer());
  EXPECT_THROW(rv.f64_vec(), ConfigError);
}

TEST(Serde, ExpectDoneThrowsOnTrailingBytes) {
  serde::Writer w;
  w.u32(1);
  w.u32(2);
  serde::Reader r(w.buffer());
  r.u32();
  EXPECT_THROW(r.expect_done("partial"), ConfigError);
}

TEST(Serde, TimeSeriesAndSummaryRoundTrip) {
  TimeSeries ts;
  ts.push(0.0, 1.5);
  ts.push(0.25, -2.0);
  Summary s;
  s.count = 7;
  s.mean = 1.25;
  s.stddev = 0.5;
  s.min = -1;
  s.max = 9;
  s.p50 = 1.0;
  s.p90 = 4.0;
  s.p99 = 8.5;

  serde::Writer w;
  serde::write_time_series(w, ts);
  serde::write_summary(w, s);
  serde::Reader r(w.buffer());
  const TimeSeries ts2 = serde::read_time_series(r);
  const Summary s2 = serde::read_summary(r);
  r.expect_done("time series + summary");
  EXPECT_EQ(ts2.t, ts.t);
  EXPECT_EQ(ts2.v, ts.v);
  EXPECT_EQ(s2.count, s.count);
  EXPECT_EQ(s2.mean, s.mean);
  EXPECT_EQ(s2.stddev, s.stddev);
  EXPECT_EQ(s2.min, s.min);
  EXPECT_EQ(s2.max, s.max);
  EXPECT_EQ(s2.p50, s.p50);
  EXPECT_EQ(s2.p90, s.p90);
  EXPECT_EQ(s2.p99, s.p99);
}

TEST(Serde, TraceWasteCodecRoundTrip) {
  topo::TraceWasteResult res;
  res.waste_ratio.push(0.0, 0.01);
  res.waste_ratio.push(1.0, 0.02);
  res.usable_gpus.push(0.0, 2816.0);
  res.waste_summary.count = 2;
  res.waste_summary.mean = 0.015;
  res.waste_summary.max = 0.02;

  const auto& codec = topo::trace_waste_codec();
  serde::Writer w;
  codec.save(w, res);
  serde::Reader r(w.buffer());
  const topo::TraceWasteResult back = codec.load(r);
  r.expect_done("trace waste result");

  EXPECT_EQ(back.waste_ratio.t, res.waste_ratio.t);
  EXPECT_EQ(back.waste_ratio.v, res.waste_ratio.v);
  EXPECT_EQ(back.usable_gpus.t, res.usable_gpus.t);
  EXPECT_EQ(back.usable_gpus.v, res.usable_gpus.v);
  EXPECT_EQ(back.waste_summary.count, res.waste_summary.count);
  EXPECT_EQ(back.waste_summary.mean, res.waste_summary.mean);
  EXPECT_EQ(back.waste_summary.max, res.waste_summary.max);
}

}  // namespace
}  // namespace ihbd
