#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/runtime/report.h"
#include "src/runtime/substream.h"
#include "src/runtime/sweep.h"
#include "src/runtime/thread_pool.h"

namespace ihbd::runtime {
namespace {

// --- Rng substreams ------------------------------------------------------

TEST(Substream, DeterministicAndOrderIndependent) {
  const Rng a = substream(42, 17);
  Rng b = substream(42, 999);  // materializing other streams in between
  (void)b.next();
  const Rng c = substream(42, 17);
  EXPECT_EQ(a.state(), c.state());
}

TEST(Substream, DistinctIndicesAreIndependent) {
  Rng a = substream(5, 0);
  Rng b = substream(5, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, PropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37)
                                     throw ConfigError("bad scenario");
                                 }),
               ConfigError);
  // The pool must survive a failed fan-out.
  std::atomic<int> ran{0};
  pool.parallel_for(50, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, ParallelForFromWorkerTaskCompletes) {
  // A parallel_for issued from a body already running on a pool worker must
  // not deadlock even with 1 worker: the blocked joiner executes the nested
  // chunks from the queue itself (helping join).
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> on_worker{false};
  std::atomic<int> ran{0};
  pool.parallel_for(2, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      // Hold the calling thread so the worker claims the other index.
      while (!on_worker.load()) std::this_thread::yield();
      return;
    }
    if (on_worker.exchange(true)) return;  // the worker claimed both indices
    pool.parallel_for(10, [&](std::size_t) { ++ran; });
  });
  EXPECT_EQ(ran.load(), 10);
}

TEST(PoolRef, OwnsAPoolOfTheGivenWidthOrBorrowsTheGivenPool) {
  EXPECT_EQ(PoolRef(3)->size(), 3);
  EXPECT_EQ(PoolRef(0)->size(), ThreadPool::default_threads());
  ThreadPool pool(2);
  const PoolRef borrowed(5, &pool);  // a given pool wins over `threads`
  EXPECT_EQ(borrowed.get(), &pool);
  std::atomic<int> ran{0};
  borrowed->parallel_for(20, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 20);
}

// --- Accumulator ----------------------------------------------------------

TEST(Accumulator, MatchesStatsOnSamples) {
  Accumulator acc;
  const std::vector<double> xs{3.0, 1.0, 4.0, 1.5, 9.0, 2.5};
  for (double x : xs) acc.add(x);
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_NEAR(acc.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(acc.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.summary().p50, summarize(xs).p50);
}

TEST(Accumulator, DisablingRetentionDiscardsSamples) {
  // A moments-only accumulator holds no samples, and its summary
  // percentiles fall back to the mean.
  Accumulator acc(false);
  for (int i = 0; i < 4; ++i) acc.add(i);
  acc.add(100.0);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_TRUE(acc.samples().empty());
  const Summary s = acc.summary();
  EXPECT_DOUBLE_EQ(s.mean, acc.mean());
  EXPECT_DOUBLE_EQ(s.p50, acc.mean());
  EXPECT_DOUBLE_EQ(s.p90, acc.mean());
  EXPECT_DOUBLE_EQ(s.p99, acc.mean());
}

// --- Sweep engine ---------------------------------------------------------

SweepSpec small_spec() {
  SweepSpec spec;
  spec.seed = 99;
  spec.trials = 25;
  spec.axes = {Axis::of_values("x", {0.1, 0.5, 0.9}),
               Axis::of_labels("mode", {"a", "b"})};
  return spec;
}

double noisy_trial(const Scenario& s, Rng& rng) {
  // Consume a scheduling-sensitive number of draws so stream sharing or
  // ordering bugs cannot cancel out.
  const int extra = static_cast<int>(rng.uniform_index(7));
  for (int i = 0; i < extra; ++i) rng.next();
  const double base = s.label(1) == "b" ? 10.0 : 0.0;
  return base + s.value(0) + rng.normal(0.0, 1.0);
}

TEST(Sweep, BitStableAcrossThreadCounts) {
  const auto spec = small_spec();
  const auto serial = run_sweep(spec, noisy_trial, 1);
  const auto wide = run_sweep(spec, noisy_trial, 8);
  ASSERT_EQ(serial.cells.size(), spec.cell_count());
  ASSERT_EQ(wide.cells.size(), spec.cell_count());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    EXPECT_EQ(serial.cells[c].samples(), wide.cells[c].samples())
        << "cell " << c;
    EXPECT_DOUBLE_EQ(serial.cells[c].mean(), wide.cells[c].mean());
  }
}

TEST(Sweep, ScenarioExposesGrid) {
  auto spec = small_spec();
  spec.trials = 1;
  const auto result = run_sweep(
      spec,
      [](const Scenario& s, Rng&) {
        return s.value(0) * 100.0 + static_cast<double>(s.index(1));
      },
      2);
  EXPECT_DOUBLE_EQ(result.cell({0, 0}).mean(), 10.0);
  EXPECT_DOUBLE_EQ(result.cell({2, 1}).mean(), 91.0);
}

TEST(Sweep, NanMarksCellNotApplicable) {
  auto spec = small_spec();
  const auto result = run_sweep(
      spec,
      [](const Scenario& s, Rng& rng) {
        if (s.label(1) == "b")
          return std::numeric_limits<double>::quiet_NaN();
        return rng.uniform();
      },
      3);
  EXPECT_TRUE(result.cell({0, 1}).empty());
  EXPECT_EQ(result.cell({0, 0}).count(),
            static_cast<std::size_t>(spec.trials));
}

TEST(Sweep, KeepSamplesOffStillHasMoments) {
  auto spec = small_spec();
  spec.keep_samples = false;
  const auto result =
      run_sweep(spec, [](const Scenario&, Rng& rng) { return rng.uniform(); },
                2);
  EXPECT_TRUE(result.cell({0, 0}).samples().empty());
  EXPECT_EQ(result.cell({0, 0}).count(),
            static_cast<std::size_t>(spec.trials));
  EXPECT_GT(result.cell({0, 0}).mean(), 0.0);
}

// --- Generic reduce engine -------------------------------------------------

TEST(GenericSweep, ScalarAdapterIsBitIdenticalToManualFold) {
  // run_sweep must be exactly the generic engine + Accumulator fold.
  const auto spec = small_spec();
  const auto scalar = run_sweep(spec, noisy_trial, 4);
  const auto generic = run_sweep_reduce(
      spec, Accumulator(spec.keep_samples), noisy_trial,
      [](Accumulator& acc, double x) {
        if (!std::isnan(x)) acc.add(x);
      },
      4);
  ASSERT_EQ(scalar.cells.size(), generic.cells.size());
  for (std::size_t c = 0; c < scalar.cells.size(); ++c) {
    EXPECT_EQ(scalar.cells[c].samples(), generic.cells[c].samples());
    EXPECT_EQ(scalar.cells[c].count(), generic.cells[c].count());
  }
}

TEST(GenericSweep, NonScalarResultsFoldInTrialOrder) {
  // Trials return a struct; the accumulator is a vector of them. Fold order
  // within a cell must be trial order for ANY thread count.
  struct Draw {
    int trial;
    double value;
  };
  auto spec = small_spec();
  spec.trials = 40;
  auto run = [&](int threads) {
    return run_sweep_reduce(
        spec, std::vector<Draw>{},
        [](const Scenario& s, Rng& rng) {
          return Draw{s.trial(), rng.uniform()};
        },
        [](std::vector<Draw>& acc, Draw&& d) { acc.push_back(d); }, threads);
  };
  const auto serial = run(1);
  const auto wide = run(8);
  ASSERT_EQ(serial.cells.size(), spec.cell_count());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    ASSERT_EQ(serial.cells[c].size(), 40u);
    for (int t = 0; t < 40; ++t) {
      EXPECT_EQ(serial.cells[c][t].trial, t);
      EXPECT_EQ(serial.cells[c][t].value, wide.cells[c][t].value);
    }
  }
}

TEST(GenericSweep, TrialsOfOneCellFoldInTrialOrderForAnyThreadCount) {
  // One cell of 8 trials whose bodies finish in reverse trial order: the
  // fold appends (trial, first draw), so any reordering shows.
  SweepSpec spec;
  spec.seed = 21;
  spec.trials = 8;
  spec.axes = {Axis::of_labels("cell", {"only"})};
  const auto run = [&](int threads) {
    return run_sweep_reduce(
               spec, std::vector<std::uint64_t>{},
               [&](const Scenario& s, Rng& rng) {
                 std::this_thread::sleep_for(
                     std::chrono::milliseconds(spec.trials - s.trial()));
                 return std::pair<int, std::uint64_t>{s.trial(), rng.next()};
               },
               [](std::vector<std::uint64_t>& acc,
                  std::pair<int, std::uint64_t>&& r) {
                 acc.push_back(static_cast<std::uint64_t>(r.first));
                 acc.push_back(r.second);
               },
               threads)
        .cells.front();
  };
  std::vector<std::uint64_t> expected;
  for (int t = 0; t < spec.trials; ++t) {
    Rng rng = trial_rng(spec, 0, t);
    expected.push_back(static_cast<std::uint64_t>(t));
    expected.push_back(rng.next());
  }
  for (const int threads : {1, 2, 4})
    EXPECT_EQ(run(threads), expected) << threads << " threads";
}

TEST(GenericSweep, TrialsOfOneCellRunConcurrently) {
  // A two-trial rendezvous: each trial waits (bounded) for the other to
  // start. Serialized trials time out instead of hanging, and fail.
  SweepSpec spec;
  spec.seed = 3;
  spec.trials = 2;
  spec.axes = {Axis::of_labels("cell", {"only"})};
  for (const int threads : {2, 4}) {
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    const auto result = run_sweep_reduce(
        spec, 0,
        [&](const Scenario&, Rng&) {
          std::unique_lock<std::mutex> lock(mu);
          ++arrived;
          cv.notify_all();
          return cv.wait_for(lock, std::chrono::seconds(10),
                             [&] { return arrived == 2; })
                     ? 1
                     : 0;
        },
        [](int& met, int saw) { met += saw; }, threads);
    EXPECT_EQ(result.cells.front(), 2) << threads << " threads";
  }
}

TEST(GenericSweep, TrialRngMatchesEngineSubstreams) {
  // trial_rng exposes the exact stream a (cell, trial) pair consumed.
  auto spec = small_spec();
  spec.trials = 5;
  const auto result = run_sweep(
      spec, [](const Scenario&, Rng& rng) { return rng.uniform(); }, 3);
  for (std::size_t cell = 0; cell < spec.cell_count(); ++cell) {
    for (int t = 0; t < spec.trials; ++t) {
      Rng rng = trial_rng(spec, cell, t);
      EXPECT_EQ(result.cells[cell].samples()[static_cast<std::size_t>(t)],
                rng.uniform());
    }
  }
}

// --- Report ---------------------------------------------------------------

TEST(Report, RendersRowsColsAndDropsEmptyColumns) {
  SweepSpec spec;
  spec.seed = 1;
  spec.trials = 4;
  spec.axes = {Axis::of_values("f", {0.0, 1.0}),
               Axis::of_labels("arch", {"good", "unsupported"})};
  const auto result = run_sweep(
      spec,
      [](const Scenario& s, Rng&) {
        if (s.index(1) == 1) return std::numeric_limits<double>::quiet_NaN();
        return s.value(0) + 1.0;
      },
      2);

  ReportSpec report;
  report.title = "demo";
  report.row_axis = 0;
  report.col_axis = 1;
  const Table table = to_table(result, report);
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("good"), std::string::npos);
  EXPECT_EQ(rendered.find("unsupported"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Report, FixedAxisSelectsSlice) {
  SweepSpec spec;
  spec.seed = 3;
  spec.trials = 1;
  spec.axes = {Axis::of_values("tp", {8, 16}),
               Axis::of_values("f", {0.0, 1.0}),
               Axis::of_labels("arch", {"x"})};
  const auto result = run_sweep(
      spec,
      [](const Scenario& s, Rng&) { return s.value(0) + s.value(1); }, 2);

  ReportSpec report;
  report.row_axis = 1;
  report.col_axis = 2;
  report.fixed = {{0, 1}};  // tp = 16
  report.format = [](double v) { return Table::fmt(v, 0); };
  const std::string rendered = to_table(result, report).to_string();
  EXPECT_NE(rendered.find("17"), std::string::npos);  // 16 + 1.0
}

}  // namespace
}  // namespace ihbd::runtime
