// The write-only binary encoder (src/common/serde.h): its bytes against
// hand-built little-endian words, and the field coverage of the replay
// result's saved bytes (what the replay result digests hash).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/serde.h"
#include "src/common/stats.h"
#include "src/topo/waste.h"

namespace ihbd {
namespace {

/// The `n` low bytes of `v`, least significant first.
std::string le_bytes(std::uint64_t v, int n = 8) {
  std::string out;
  for (int i = 0; i < n; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  return out;
}

TEST(Serde, WriterBytesAreLittleEndian) {
  serde::Writer w;
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64_vec({1.0, -2.25});
  EXPECT_EQ(w.buffer(), le_bytes(0xDEADBEEF, 4) +
                            le_bytes(0x0123456789ABCDEFull) + le_bytes(2) +
                            le_bytes(0x3FF0000000000000ull) +
                            le_bytes(0xC002000000000000ull));
}

TEST(Serde, DoublesTravelByBitPattern) {
  // A quiet NaN with a payload, -inf and -0.0: each is written as its IEEE
  // bit pattern, so no value collapses into another.
  const std::uint64_t nan_bits = 0x7FF800000005CA1Eull;
  serde::Writer w;
  w.f64(std::bit_cast<double>(nan_bits));
  w.f64(-std::numeric_limits<double>::infinity());
  w.f64(-0.0);
  EXPECT_EQ(w.buffer(), le_bytes(nan_bits) + le_bytes(0xFFF0000000000000ull) +
                            le_bytes(0x8000000000000000ull));
}

TEST(Serde, TraceWasteResultBytesCoverEveryField) {
  // Each variant changes one member of a result; a save() that skipped the
  // member would give the base bytes. The size checks fail when a member
  // is added without a variant here.
  using topo::TraceWasteResult;
  static_assert(sizeof(Summary) == 8 * sizeof(double));
  static_assert(sizeof(TraceWasteResult) ==
                2 * sizeof(TimeSeries) + sizeof(Summary));
  static_assert(sizeof(TimeSeries) == 2 * sizeof(std::vector<double>));

  TraceWasteResult base;
  base.waste_ratio.push(0.0, 0.01);
  base.waste_ratio.push(1.0, 0.02);
  base.usable_gpus.push(0.0, 2816.0);
  base.usable_gpus.push(1.0, 2784.0);
  base.waste_summary = base.waste_ratio.summarize_values();

  const std::vector<std::pair<const char*, std::function<void(
                                                TraceWasteResult&)>>>
      variants = {
          {"waste_ratio.t", [](auto& r) { r.waste_ratio.t[1] = 2.0; }},
          {"waste_ratio.v", [](auto& r) { r.waste_ratio.v[1] = 0.03; }},
          {"usable_gpus.t", [](auto& r) { r.usable_gpus.t[1] = 2.0; }},
          {"usable_gpus.v", [](auto& r) { r.usable_gpus.v[1] = 2752.0; }},
          {"summary.count", [](auto& r) { ++r.waste_summary.count; }},
          {"summary.mean", [](auto& r) { r.waste_summary.mean += 1.0; }},
          {"summary.stddev", [](auto& r) { r.waste_summary.stddev += 1.0; }},
          {"summary.min", [](auto& r) { r.waste_summary.min += 1.0; }},
          {"summary.max", [](auto& r) { r.waste_summary.max += 1.0; }},
          {"summary.p50", [](auto& r) { r.waste_summary.p50 += 1.0; }},
          {"summary.p90", [](auto& r) { r.waste_summary.p90 += 1.0; }},
          {"summary.p99", [](auto& r) { r.waste_summary.p99 += 1.0; }},
      };
  const auto bytes = [](const TraceWasteResult& r) {
    serde::Writer w;
    topo::trace_waste_codec().save(w, r);
    return w.take();
  };
  const std::string base_bytes = bytes(base);
  for (const auto& [field, change] : variants) {
    TraceWasteResult r = base;
    change(r);
    EXPECT_NE(bytes(r), base_bytes) << field << " is not saved";
  }
}

}  // namespace
}  // namespace ihbd
