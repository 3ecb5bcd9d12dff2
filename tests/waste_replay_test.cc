// One-pass trace replay (src/topo/waste.h): bit-equivalence against the
// serial oracle, alone and as the cells of a pooled sweep grid; the ignored
// TraceReplayOptions members; and sample-day/slice primitives
// (src/fault/trace.h).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/common/serde.h"
#include "src/fault/generator.h"
#include "src/fault/trace.h"
#include "src/runtime/sweep.h"
#include "src/runtime/thread_pool.h"
#include "src/topo/khop_ring.h"
#include "src/topo/waste.h"

namespace ihbd::topo {
namespace {

fault::FaultTrace small_trace(int nodes = 96, double days = 45.0) {
  fault::TraceGenConfig cfg;
  cfg.node_count = nodes;
  cfg.duration_days = days;
  return fault::generate_trace(cfg);
}

void expect_same_result(const TraceWasteResult& a, const TraceWasteResult& b) {
  // Bitwise: vector<double> operator== compares element bits for non-NaN.
  EXPECT_EQ(a.waste_ratio.t, b.waste_ratio.t);
  EXPECT_EQ(a.waste_ratio.v, b.waste_ratio.v);
  EXPECT_EQ(a.usable_gpus.t, b.usable_gpus.t);
  EXPECT_EQ(a.usable_gpus.v, b.usable_gpus.v);
  EXPECT_EQ(a.waste_summary.count, b.waste_summary.count);
  EXPECT_EQ(a.waste_summary.mean, b.waste_summary.mean);
  EXPECT_EQ(a.waste_summary.p50, b.waste_summary.p50);
  EXPECT_EQ(a.waste_summary.p90, b.waste_summary.p90);
  EXPECT_EQ(a.waste_summary.p99, b.waste_summary.p99);
  EXPECT_EQ(a.waste_summary.min, b.waste_summary.min);
  EXPECT_EQ(a.waste_summary.max, b.waste_summary.max);
}

// --- fault-layer primitives ----------------------------------------------

TEST(SampleDays, MatchesSerialLoopEnumeration) {
  const auto trace = small_trace();
  for (double step : {1.0, 0.7, 2.5}) {
    const auto days = trace.sample_days(step);
    std::vector<double> expect;
    for (double day = 0.0; day < trace.duration_days(); day += step)
      expect.push_back(day);
    EXPECT_EQ(days, expect) << "step " << step;
  }
}

TEST(TraceSlice, MasksMatchFullTraceInsideTheWindow) {
  const auto trace = small_trace();
  const double lo = 10.0, hi = 20.0;
  const auto sliced = trace.slice(lo, hi);
  EXPECT_EQ(sliced.node_count(), trace.node_count());
  EXPECT_LE(sliced.events().size(), trace.events().size());
  for (double day : {10.0, 13.7, 20.0})
    EXPECT_EQ(sliced.faulty_at(day), trace.faulty_at(day)) << "day " << day;
}

TEST(TraceSlice, DurationClampsToTheSliceEnd) {
  const auto trace = small_trace();  // 45 days
  const auto sliced = trace.slice(10.0, 20.0);
  // Clamped to just past end_day: sample_days/ratio_series stop at the
  // slice boundary (end_day itself still included) instead of running over
  // the full 45-day range.
  EXPECT_GE(sliced.duration_days(), 20.0);
  EXPECT_LT(sliced.duration_days(), 20.0 + 1e-9);
  const auto days = sliced.sample_days(1.0);
  ASSERT_EQ(days.size(), 21u);  // 0..20 inclusive
  EXPECT_EQ(days.back(), 20.0);
  EXPECT_EQ(sliced.ratio_series(1.0).size(), 21u);
  // A slice past the trace end keeps the full duration.
  EXPECT_EQ(trace.slice(0.0, 100.0).duration_days(), trace.duration_days());
  // Degenerate slice at day 0 stays constructible and samples one day.
  EXPECT_EQ(trace.slice(0.0, 0.0).sample_days(1.0).size(), 1u);
}

// --- one-pass replay vs serial oracle ------------------------------------

TEST(TraceReplay, BitIdenticalToSerialOracle) {
  const auto trace = small_trace();
  const KHopRing ring(96, 4, 2);
  const auto serial = evaluate_waste_over_trace(ring, trace, 8, 1.0);
  ASSERT_EQ(serial.waste_ratio.size(), 45u);
  expect_same_result(serial,
                     evaluate_waste_over_trace(ring, trace, 8,
                                               TraceReplayOptions{}));
}

TEST(TraceReplay, PoolAndWindowSamplesAreIgnored) {
  // keep_samples, pool and window_samples stay only for source
  // compatibility; setting them must not move one output byte.
  const auto trace = small_trace();
  const KHopRing ring(96, 4, 2);
  const auto bytes = [](const TraceWasteResult& r) {
    serde::Writer w;
    trace_waste_codec().save(w, r);
    return w.take();
  };
  const std::string plain =
      bytes(evaluate_waste_over_trace(ring, trace, 8, TraceReplayOptions{}));
  runtime::ThreadPool pool(4);
  for (const bool keep : {true, false}) {
    for (const std::size_t window : {0ul, 7ul}) {
      TraceReplayOptions opts;
      opts.keep_samples = keep;
      opts.pool = &pool;
      opts.window_samples = window;
      EXPECT_EQ(bytes(evaluate_waste_over_trace(ring, trace, 8, opts)), plain)
          << "keep_samples=" << keep << " window=" << window;
    }
  }
}

TEST(TraceReplay, PooledSweepGridBitIdenticalToSerialOracle) {
  // The production shape of Figs. 13/15/16/20: a sweep over (TP) cells,
  // each replaying the whole trace on whichever pool worker runs it.
  // Results must stay bit-identical to the serial oracle for any worker
  // count.
  const auto trace = small_trace();
  const KHopRing ring(96, 4, 2);
  const std::vector<double> tps{4, 8, 16};

  std::vector<TraceWasteResult> oracle;
  for (const double tp : tps)
    oracle.push_back(
        evaluate_waste_over_trace(ring, trace, static_cast<int>(tp), 1.0));

  for (int workers : {1, 2, 8}) {
    runtime::ThreadPool pool(workers);
    runtime::SweepSpec spec;
    spec.trials = 1;
    spec.axes = {runtime::Axis::of_values("TP", tps)};
    const auto grid = runtime::run_sweep_reduce(
        spec, TraceWasteResult{},
        [&](const runtime::Scenario& s, Rng&) {
          return evaluate_waste_over_trace(ring, trace,
                                           static_cast<int>(s.value(0)),
                                           TraceReplayOptions{});
        },
        [](TraceWasteResult& acc, TraceWasteResult&& replay) {
          acc = std::move(replay);
        },
        /*threads=*/0, &pool);
    for (std::size_t t = 0; t < tps.size(); ++t) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " tp=" + std::to_string(static_cast<int>(tps[t])));
      expect_same_result(oracle[t], grid.cells[t]);
    }
  }
}

TEST(TraceReplay, BitIdenticalOnFractionalStep) {
  // day += 0.7 accumulates floating-point error; the one-pass replay must
  // enumerate the exact same day sequence.
  const auto trace = small_trace();
  const KHopRing ring(96, 4, 3);
  const auto serial = evaluate_waste_over_trace(ring, trace, 16, 0.7);
  TraceReplayOptions opts;
  opts.step_days = 0.7;
  expect_same_result(serial, evaluate_waste_over_trace(ring, trace, 16, opts));
}

}  // namespace
}  // namespace ihbd::topo
