#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/common/serde.h"
#include "src/common/stats.h"
#include "src/obs/metrics.h"
#include "src/runtime/accumulate.h"
#include "src/topo/waste.h"

namespace ihbd {
namespace {

TEST(Serde, PrimitiveRoundTrip) {
  serde::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1.5e300);
  w.str("hello \0 world");  // embedded NUL truncates at construction — fine
  w.str("");
  w.f64_vec({1.0, -2.25, 3.5});

  serde::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -1.5e300);
  EXPECT_EQ(r.str(), "hello ");
  EXPECT_EQ(r.str(), "");
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
  EXPECT_THROW(r.u8(), ConfigError);

  // A length prefix larger than the remaining bytes must throw, not
  // allocate or read out of bounds.
  serde::Writer bad;
  bad.u64(1000);  // claims a 1000-byte string with no bytes behind it
  serde::Reader rs(bad.buffer());
  EXPECT_THROW(rs.str(), ConfigError);
  serde::Reader rv(bad.buffer());
  EXPECT_THROW(rv.f64_vec(), ConfigError);
}

TEST(Serde, ExpectDoneThrowsOnTrailingBytes) {
  serde::Writer w;
  w.u8(1);
  w.u8(2);
  serde::Reader r(w.buffer());
  r.u8();
  EXPECT_THROW(r.expect_done("partial"), ConfigError);
}

TEST(Serde, Crc32KnownVector) {
  // The classic IEEE CRC-32 check value.
  EXPECT_EQ(serde::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(serde::crc32(""), 0x00000000u);
}

TEST(Serde, FrameRoundTripAndTamperDetection) {
  const std::string payload = "shard payload bytes";
  const std::string framed = serde::frame_record(0x4B434849, 1, payload);

  std::string_view out;
  EXPECT_EQ(serde::parse_record(framed, 0x4B434849, 1, &out),
            serde::FrameStatus::ok);
  EXPECT_EQ(out, payload);

  // Wrong magic / version are typed, not garbage.
  EXPECT_EQ(serde::parse_record(framed, 0x11111111, 1, &out),
            serde::FrameStatus::bad_magic);
  EXPECT_EQ(serde::parse_record(framed, 0x4B434849, 2, &out),
            serde::FrameStatus::bad_version);

  // Flip one payload byte: checksum catches it.
  std::string tampered = framed;
  tampered.back() ^= 0x01;
  EXPECT_EQ(serde::parse_record(tampered, 0x4B434849, 1, &out),
            serde::FrameStatus::bad_checksum);

  // Truncations anywhere are typed as truncated.
  for (std::size_t cut : {std::size_t{0}, std::size_t{10}, framed.size() - 1}) {
    EXPECT_EQ(serde::parse_record(std::string_view(framed).substr(0, cut),
                                  0x4B434849, 1, &out),
              serde::FrameStatus::truncated)
        << "cut=" << cut;
  }
  // Trailing bytes beyond the declared payload are rejected too.
  EXPECT_EQ(serde::parse_record(framed + "x", 0x4B434849, 1, &out),
            serde::FrameStatus::truncated);
}

TEST(Serde, AtomicFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/serde_atomic.bin";
  const std::string bytes("abc\0def\xff", 8);
  ASSERT_TRUE(serde::write_file_atomic(path, bytes));
  const auto back = serde::read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
  // Overwrite is atomic too (same call path) and replaces the content.
  ASSERT_TRUE(serde::write_file_atomic(path, "v2"));
  EXPECT_EQ(serde::read_file(path).value(), "v2");
  std::remove(path.c_str());
  EXPECT_FALSE(serde::read_file(path).has_value());
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

TEST(Serde, AccumulatorRoundTripIsExact) {
  runtime::Accumulator acc;
  acc.add(1.0);
  acc.add(-3.75);
  acc.add(100.125);

  serde::Writer w;
  acc.save(w);
  serde::Reader r(w.buffer());
  const runtime::Accumulator back = runtime::Accumulator::load(r);
  r.expect_done("accumulator");

  EXPECT_EQ(back.count(), acc.count());
  EXPECT_EQ(back.mean(), acc.mean());
  EXPECT_EQ(back.variance(), acc.variance());
  EXPECT_EQ(back.min(), acc.min());
  EXPECT_EQ(back.max(), acc.max());
  EXPECT_EQ(back.samples(), acc.samples());

  // The restored accumulator keeps accumulating identically: add the same
  // value to both and every moment still matches bit-for-bit.
  runtime::Accumulator a = acc, b = back;
  a.add(0.5);
  b.add(0.5);
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
}

TEST(Serde, AccumulatorLoadRejectsPartialSamples) {
  runtime::Accumulator acc;
  acc.add(1.0);
  acc.add(2.0);
  serde::Writer w;
  acc.save(w);
  // Rewrite with count=3 but only the 2 retained samples: the
  // complete-or-empty invariant must reject it.
  serde::Reader probe(w.buffer());
  (void)probe.u64();  // count
  serde::Writer forged;
  forged.u64(3);
  const std::string rest(w.buffer().substr(8));
  for (char c : rest) forged.u8(static_cast<std::uint8_t>(c));
  serde::Reader r(forged.buffer());
  EXPECT_THROW(runtime::Accumulator::load(r), ConfigError);

  // The retention flag must agree with the samples: a retaining frame with
  // values but no samples, and a moments-only frame that holds samples.
  const auto frame = [](bool keep, const std::vector<double>& samples) {
    serde::Writer f;
    f.u64(2);     // count
    f.f64(1.5);   // mean
    f.f64(0.5);   // m2
    f.f64(1.0);   // min
    f.f64(2.0);   // max
    f.u8(keep ? 1 : 0);
    f.f64_vec(samples);
    return f.take();
  };
  for (const std::string& bytes :
       {frame(true, {}), frame(false, {1.0, 2.0})}) {
    serde::Reader bad(bytes);
    EXPECT_THROW(runtime::Accumulator::load(bad), ConfigError);
  }
  // ...while both consistent frames load.
  for (const std::string& bytes :
       {frame(true, {1.0, 2.0}), frame(false, {})}) {
    serde::Reader good(bytes);
    EXPECT_EQ(runtime::Accumulator::load(good).count(), 2u);
  }
}

TEST(Serde, MetricsSnapshotRoundTripAndMerge) {
  obs::MetricsSnapshot a;
  a.counters["sweep.cells"] = 10;
  a.gauges["pool.width"] = 8.0;
  a.histograms["lat"].count = 2;
  a.histograms["lat"].sum = 3.5;
  a.histograms["lat"].buckets = {{0.1, 1}, {1.0, 2}};

  serde::Writer w;
  a.save(w);
  serde::Reader r(w.buffer());
  const obs::MetricsSnapshot back = obs::MetricsSnapshot::load(r);
  r.expect_done("metrics snapshot");
  EXPECT_EQ(back.to_json(), a.to_json());

  obs::MetricsSnapshot b;
  b.counters["sweep.cells"] = 5;
  b.gauges["pool.width"] = 4.0;
  b.histograms["lat"].count = 1;
  b.histograms["lat"].sum = 0.25;
  b.histograms["lat"].buckets = {{0.1, 1}, {1.0, 1}};

  obs::MetricsSnapshot merged = back;
  merged.merge(b);
  EXPECT_EQ(merged.counters["sweep.cells"], 15u);
  EXPECT_EQ(merged.gauges["pool.width"], 4.0);  // later wins
  EXPECT_EQ(merged.histograms["lat"].count, 3u);
  EXPECT_EQ(merged.histograms["lat"].sum, 3.75);
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
