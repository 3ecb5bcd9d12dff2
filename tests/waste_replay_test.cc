// Windowed parallel trace replay (src/topo/waste.h): bit-equivalence
// against the serial reference for any thread count and window size,
// window-order merge associativity, sample-day/slice/window primitives
// (src/fault/trace.h), and the keep_samples memory-bounding mode.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

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

TEST(SplitWindows, CoversEveryIndexOnceInOrder) {
  for (std::size_t n : {0ul, 1ul, 10ul, 97ul}) {
    for (std::size_t w : {0ul, 1ul, 3ul, 7ul, 97ul, 1000ul}) {
      const auto windows = fault::split_windows(n, w);
      std::size_t next = 0;
      for (const auto& window : windows) {
        EXPECT_EQ(window.begin, next);
        EXPECT_GT(window.count, 0u);
        if (w > 0) EXPECT_LE(window.count, w);
        next = window.begin + window.count;
      }
      EXPECT_EQ(next, n) << "n=" << n << " w=" << w;
      if (n > 0 && w == 0) EXPECT_EQ(windows.size(), 1u);
    }
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

// --- windowed replay vs serial reference ---------------------------------

TEST(WindowedReplay, BitIdenticalToSerialAcrossThreadsAndWindows) {
  const auto trace = small_trace();
  const KHopRing ring(96, 4, 2);
  const auto serial = evaluate_waste_over_trace(ring, trace, 8, 1.0);
  ASSERT_EQ(serial.waste_ratio.size(), 45u);

  for (int threads : {1, 2, 8}) {
    for (std::size_t window : {1ul, 3ul, 7ul, 64ul, 1000ul, 0ul}) {
      TraceReplayOptions opts;
      opts.threads = threads;
      opts.window_samples = window;
      const auto windowed = evaluate_waste_over_trace(ring, trace, 8, opts);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " window=" + std::to_string(window));
      expect_same_result(serial, windowed);
    }
  }
}

TEST(WindowedReplay, NestedSweepInReplayBitIdenticalToSerialOracle) {
  // The production shape of Figs. 13/15/16/20: a sweep over (TP) cells
  // whose trials each fan their replay windows out on the SAME pool
  // (TraceReplayOptions::pool). The work-stealing scheduler interleaves
  // both levels arbitrarily; results must stay bit-identical to the serial
  // oracle for any worker count.
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
          TraceReplayOptions opts;
          opts.pool = &pool;  // nested: windows steal idle sweep workers
          opts.window_samples = 7;
          return evaluate_waste_over_trace(ring, trace,
                                           static_cast<int>(s.value(0)), opts);
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

TEST(WindowedReplay, BitIdenticalOnFractionalStep) {
  // day += 0.7 accumulates floating-point error; the windowed replay must
  // enumerate the exact same day sequence.
  const auto trace = small_trace();
  const KHopRing ring(96, 4, 3);
  const auto serial = evaluate_waste_over_trace(ring, trace, 16, 0.7);
  TraceReplayOptions opts;
  opts.step_days = 0.7;
  opts.threads = 4;
  opts.window_samples = 5;
  expect_same_result(serial, evaluate_waste_over_trace(ring, trace, 16, opts));
}

TEST(WindowedReplay, KeepSamplesOffKeepsSeriesAndMoments) {
  const auto trace = small_trace();
  const KHopRing ring(96, 4, 2);
  const auto exact = evaluate_waste_over_trace(ring, trace, 8, 1.0);
  TraceReplayOptions opts;
  opts.threads = 2;
  opts.window_samples = 7;
  opts.keep_samples = false;
  const auto bounded = evaluate_waste_over_trace(ring, trace, 8, opts);
  // The series (what fig20 prints) are untouched...
  EXPECT_EQ(bounded.waste_ratio.v, exact.waste_ratio.v);
  EXPECT_EQ(bounded.usable_gpus.v, exact.usable_gpus.v);
  EXPECT_EQ(bounded.waste_summary.count, exact.waste_summary.count);
  EXPECT_NEAR(bounded.waste_summary.mean, exact.waste_summary.mean, 1e-12);
  EXPECT_EQ(bounded.waste_summary.max, exact.waste_summary.max);
  // ...but percentiles degrade to the documented moments-only approximation.
  EXPECT_EQ(bounded.waste_summary.p99, bounded.waste_summary.mean);
}

// --- fragment merge --------------------------------------------------------

TEST(TraceWindowFragment, MergeIsAssociativeAndMatchesSerial) {
  const auto trace = small_trace();
  const KHopRing ring(96, 4, 2);
  const auto days = trace.sample_days(1.0);
  const auto windows = fault::split_windows(days.size(), 17);
  ASSERT_EQ(windows.size(), 3u);  // 45 samples -> 17 + 17 + 11

  auto replay = [&](std::size_t w) {
    return replay_trace_window_incremental(ring, trace, 8, days, windows[w],
                                           /*step_days=*/1.0);
  };

  // (a . b) . c
  TraceWindowFragment left = replay(0);
  left.merge_next(replay(1));
  left.merge_next(replay(2));
  // a . (b . c)
  TraceWindowFragment bc = replay(1);
  bc.merge_next(replay(2));
  TraceWindowFragment right = replay(0);
  right.merge_next(std::move(bc));

  EXPECT_EQ(left.waste_ratio.v, right.waste_ratio.v);
  EXPECT_EQ(left.usable_gpus.v, right.usable_gpus.v);
  EXPECT_EQ(left.waste_acc.samples(), right.waste_acc.samples());
  EXPECT_EQ(left.waste_acc.count(), right.waste_acc.count());
  EXPECT_EQ(left.waste_acc.min(), right.waste_acc.min());
  EXPECT_EQ(left.waste_acc.max(), right.waste_acc.max());

  const auto serial = evaluate_waste_over_trace(ring, trace, 8, 1.0);
  EXPECT_EQ(left.waste_ratio.v, serial.waste_ratio.v);
  EXPECT_EQ(left.waste_acc.summary().p99, serial.waste_summary.p99);
}

}  // namespace
}  // namespace ihbd::topo
