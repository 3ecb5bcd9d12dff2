// Observability stack (src/obs): lock-free sharded metrics vs a serial
// oracle under concurrent hammering, histogram bucketing, snapshot merge
// associativity, disabled-path no-ops, span-trace JSON well-formedness
// (balanced B/E, per-thread monotonic timestamps), and the standing
// invariant that instrumentation never perturbs bench output (byte-equal
// replay-grid tables with obs on vs off).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/fault_bench_common.h"
#include "src/common/table.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/thread_pool.h"

namespace ihbd::obs {
namespace {

/// Every test leaves the global obs state as it found it (off, zeroed):
/// the suite shares one process-wide registry.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    set_trace_enabled(false);
    reset();
    clear_trace();
  }
  void TearDown() override { SetUp(); }
};

#if IHBD_OBS

TEST_F(ObsTest, CounterConcurrentHammerMatchesSerialOracle) {
  set_enabled(true);
  Counter& c = counter("test.hammer.counter");
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  runtime::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    for (int k = 0; k < kAddsPerTask; ++k) c.add(i % 3 + 1);
  });
  std::uint64_t oracle = 0;
  for (int i = 0; i < kTasks; ++i)
    oracle += static_cast<std::uint64_t>(i % 3 + 1) * kAddsPerTask;
  EXPECT_EQ(c.value(), oracle);
}

TEST_F(ObsTest, HistogramConcurrentHammerMatchesSerialOracle) {
  set_enabled(true);
  Histogram& h = histogram("test.hammer.histogram");
  constexpr int kTasks = 32;
  constexpr int kObsPerTask = 500;
  const auto value_of = [](std::size_t task, int k) {
    // Deterministic spread over ~9 decades, including sub-1 values.
    return 1e-4 * static_cast<double>(task * kObsPerTask + k + 1);
  };
  runtime::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    for (int k = 0; k < kObsPerTask; ++k) h.observe(value_of(i, k));
  });

  std::uint64_t oracle_buckets[kHistogramBuckets] = {};
  double oracle_sum = 0.0;
  for (std::size_t i = 0; i < kTasks; ++i)
    for (int k = 0; k < kObsPerTask; ++k) {
      const double x = value_of(i, k);
      ++oracle_buckets[Histogram::bucket_of(x)];
      oracle_sum += x;
    }
  EXPECT_EQ(h.count(), std::uint64_t{kTasks} * kObsPerTask);
  for (std::size_t b = 0; b < kHistogramBuckets; ++b)
    EXPECT_EQ(h.bucket_count(b), oracle_buckets[b]) << "bucket " << b;
  // The shard sums add in unspecified order: tolerance, not equality.
  EXPECT_NEAR(h.sum(), oracle_sum, 1e-6 * oracle_sum);
}

TEST_F(ObsTest, HistogramBucketing) {
  // Each bucket's inclusive upper bound contains itself; nudging above it
  // moves to the next bucket.
  for (std::size_t b = 1; b + 1 < kHistogramBuckets; ++b) {
    const double ub = Histogram::bucket_upper_bound(b);
    EXPECT_EQ(Histogram::bucket_of(ub), b);
    EXPECT_EQ(Histogram::bucket_of(ub * 1.001), b + 1);
  }
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1e300), kHistogramBuckets - 1);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Histogram::bucket_of(kInf), kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::bucket_of(-kInf), 0u);
  EXPECT_EQ(Histogram::bucket_of(-0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::denorm_min()),
            0u);

  set_enabled(true);
  Histogram& h = histogram("test.bucketing");
  h.observe(std::nan(""));  // dropped: fits no bucket
  EXPECT_EQ(h.count(), 0u);
  h.observe(1.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(1.0)), 1u);
}

TEST_F(ObsTest, BulkAddMatchesObserveAndIsANoopWhileDisabled) {
  const double values[] = {1e-9, 3e-5, 7e-5, 0.25, 1.0, 1.5, 300.0, 1e12};
  std::array<std::uint64_t, kHistogramBuckets> counts{};
  double sum = 0.0;
  for (const double x : values) {
    ++counts[Histogram::bucket_of(x)];
    sum += x;
  }
  Histogram& bulk = histogram("test.bulk.add");
  bulk.add(counts, sum);  // disabled: nothing lands
  EXPECT_EQ(bulk.count(), 0u);
  EXPECT_EQ(bulk.sum(), 0.0);

  set_enabled(true);
  Histogram& one_by_one = histogram("test.bulk.observe");
  for (const double x : values) one_by_one.observe(x);
  bulk.add(counts, sum);
  EXPECT_EQ(bulk.count(), one_by_one.count());
  for (std::size_t b = 0; b < kHistogramBuckets; ++b)
    EXPECT_EQ(bulk.bucket_count(b), one_by_one.bucket_count(b)) << b;
  EXPECT_NEAR(bulk.sum(), one_by_one.sum(), 1e-12 * sum);
}

TEST_F(ObsTest, DisabledHandlesAreNoops) {
  Counter& c = counter("test.disabled.counter");
  Gauge& g = gauge("test.disabled.gauge");
  Histogram& h = histogram("test.disabled.histogram");
  c.add(7);
  g.set(3.5);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  {
    IHBD_TRACE_SPAN("disabled_span");
  }
  EXPECT_EQ(trace_json().find("disabled_span"), std::string::npos);
}

TEST_F(ObsTest, SnapshotMergeIsAssociative) {
  // Exactly representable values so (a⊕b)⊕c and a⊕(b⊕c) serialize to the
  // same bytes.
  const auto make = [](std::uint64_t n, double gauge_v) {
    MetricsSnapshot s;
    s.counters["c.shared"] = n;
    s.counters["c.only" + std::to_string(n)] = 1;
    s.gauges["g"] = gauge_v;
    HistogramSnapshot h;
    h.count = n;
    h.sum = static_cast<double>(n) * 0.5;
    h.buckets = {{1.0, n}, {2.0, 2 * n}};
    s.histograms["h"] = h;
    return s;
  };
  const MetricsSnapshot a = make(1, 10.0);
  const MetricsSnapshot b = make(2, 20.0);
  const MetricsSnapshot c = make(4, 40.0);

  MetricsSnapshot left = a;     // (a ⊕ b) ⊕ c
  left.merge(b);
  left.merge(c);
  MetricsSnapshot bc = b;       // a ⊕ (b ⊕ c)
  bc.merge(c);
  MetricsSnapshot right = a;
  right.merge(bc);

  EXPECT_EQ(left.to_json(), right.to_json());
  EXPECT_EQ(left.counters.at("c.shared"), 7u);
  EXPECT_EQ(left.gauges.at("g"), 40.0);  // right operand wins
  EXPECT_EQ(left.histograms.at("h").count, 7u);
}

TEST_F(ObsTest, SnapshotRoundTripsRegisteredMetrics) {
  set_enabled(true);
  counter("test.snap.counter").add(41);
  counter("test.snap.counter").add(1);
  gauge("test.snap.gauge").set(2.5);
  histogram("test.snap.histogram").observe(3.0);
  const MetricsSnapshot s = snapshot();
  EXPECT_EQ(s.counters.at("test.snap.counter"), 42u);
  EXPECT_EQ(s.gauges.at("test.snap.gauge"), 2.5);
  EXPECT_EQ(s.histograms.at("test.snap.histogram").count, 1u);
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"test.snap.counter\":42"), std::string::npos);
  EXPECT_GT(s.to_table().row_count(), 0u);
}

// --- trace ------------------------------------------------------------------

struct ParsedEvent {
  std::string name;
  char phase = '?';
  double ts_us = 0.0;
  int tid = -1;
};

/// Extract the events from the fixed field order trace_json() emits. Field
/// extraction failing (npos finds, garbled numbers) fails the test via the
/// EXPECTs in the caller — this doubles as the well-formedness check.
std::vector<ParsedEvent> parse_events(const std::string& json) {
  std::vector<ParsedEvent> events;
  const std::string kStart = "{\"name\":\"";
  for (std::size_t pos = json.find(kStart); pos != std::string::npos;
       pos = json.find(kStart, pos + 1)) {
    ParsedEvent ev;
    const std::size_t name_begin = pos + kStart.size();
    const std::size_t name_end = json.find('"', name_begin);
    if (name_end == std::string::npos) break;
    ev.name = json.substr(name_begin, name_end - name_begin);
    const std::size_t ph = json.find("\"ph\":\"", name_end);
    if (ph == std::string::npos) break;
    ev.phase = json[ph + 6];
    const std::size_t ts = json.find("\"ts\":", ph);
    if (ts == std::string::npos) break;
    ev.ts_us = std::strtod(json.c_str() + ts + 5, nullptr);
    const std::size_t tid = json.find("\"tid\":", ts);
    if (tid == std::string::npos) break;
    ev.tid = std::atoi(json.c_str() + tid + 6);
    events.push_back(ev);
  }
  return events;
}

TEST_F(ObsTest, TraceJsonWellFormed) {
  set_trace_enabled(true);
  runtime::ThreadPool pool(4);
  pool.parallel_for(16, [&](std::size_t i) {
    IHBD_TRACE_SPAN("outer");
    if (i % 2 == 0) {
      IHBD_TRACE_SPAN("inner");
    }
  });
  set_trace_enabled(false);

  const std::string json = trace_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);

  const std::vector<ParsedEvent> events = parse_events(json);
  ASSERT_EQ(events.size(), 16u + 8u + 16u + 8u);  // 24 B + 24 E

  // Per thread: timestamps monotone non-decreasing, B/E properly nested
  // with matching names, nothing left open.
  std::map<int, std::vector<std::string>> stacks;
  std::map<int, double> last_ts;
  for (const ParsedEvent& ev : events) {
    ASSERT_TRUE(ev.phase == 'B' || ev.phase == 'E') << ev.phase;
    ASSERT_GE(ev.tid, 0);
    if (last_ts.count(ev.tid)) EXPECT_GE(ev.ts_us, last_ts[ev.tid]);
    last_ts[ev.tid] = ev.ts_us;
    auto& stack = stacks[ev.tid];
    if (ev.phase == 'B') {
      stack.push_back(ev.name);
    } else {
      ASSERT_FALSE(stack.empty()) << "E without B on tid " << ev.tid;
      EXPECT_EQ(stack.back(), ev.name);
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid " << tid;
  EXPECT_EQ(trace_dropped(), 0u);

  clear_trace();
  EXPECT_TRUE(parse_events(trace_json()).empty());
}

// --- the invariant the whole design serves ----------------------------------

std::pair<std::string, std::string> replay_grid_table(int threads) {
  fault::TraceGenConfig cfg;
  cfg.node_count = 72;
  cfg.duration_days = 30.0;
  Rng rng(91);
  const auto trace =
      fault::generate_trace(cfg).split_to_half_nodes(rng).remap_nodes(144);
  const auto archs = topo::make_paper_architectures(144, 4);
  const auto grid =
      bench::replay_trace_grid(archs, trace, {8.0, 16.0}, threads);
  Table table("replay grid");
  table.set_header({"TP", "Arch", "Mean waste", "Samples"});
  for (std::size_t cell = 0; cell < grid.cells.size(); ++cell) {
    const auto& r = grid.cells[cell];
    if (!bench::replay_cell_supported(r)) continue;
    table.add_row({std::to_string(cell % 1000), "-",
                   Table::fmt(r.waste_summary.mean, 12),
                   std::to_string(r.waste_ratio.v.size())});
  }
  return {table.to_string(), table.to_csv()};
}

TEST_F(ObsTest, BenchOutputByteIdenticalWithObsOnVsOff) {
  const auto plain = replay_grid_table(/*threads=*/2);

  set_enabled(true);
  set_trace_enabled(true);
  const auto instrumented = replay_grid_table(/*threads=*/2);
  set_enabled(false);
  set_trace_enabled(false);

  EXPECT_EQ(plain.first, instrumented.first);
  EXPECT_EQ(plain.second, instrumented.second);
  // The instrumented run actually recorded something — the identity above
  // is not vacuous.
  const MetricsSnapshot snap = snapshot();
  EXPECT_GT(snap.counters.at("replay.samples"), 0u);
  EXPECT_NE(trace_json().find("replay_trace"), std::string::npos);
}

#endif  // IHBD_OBS

}  // namespace
}  // namespace ihbd::obs
