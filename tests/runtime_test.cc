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

// --- Rng jump / substreams ------------------------------------------------

TEST(RngJump, JumpMovesToDifferentSubsequence) {
  Rng a(123), b(123);
  b.jump();
  EXPECT_NE(a.state(), b.state());
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngJump, JumpIsDeterministic) {
  Rng a(7), b(7);
  a.jump();
  b.jump();
  EXPECT_EQ(a.state(), b.state());
  a.long_jump();
  b.long_jump();
  EXPECT_EQ(a.state(), b.state());
}

TEST(RngJump, LongJumpDiffersFromJump) {
  Rng a(9), b(9);
  a.jump();
  b.long_jump();
  EXPECT_NE(a.state(), b.state());
}

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

TEST(SubstreamSeq, MatchesExplicitLongJumps) {
  SubstreamSeq seq(31);
  Rng expect(31);
  expect.long_jump();
  expect.long_jump();
  expect.long_jump();
  EXPECT_EQ(seq.at(3).state(), expect.state());
  // Cached-cursor forward access, then a restart going backwards.
  EXPECT_EQ(seq.at(3).state(), expect.state());
  Rng first(31);
  first.long_jump();
  EXPECT_EQ(seq.at(1).state(), first.state());
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForHonorsGrain) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(97);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, 8);
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
  // A parallel_for issued from a task already running on the pool must not
  // deadlock even with 1 worker: the blocked joiner executes the nested
  // chunks from its own deque itself (work-stealing helping join).
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  pool.submit([&] { pool.parallel_for(10, [&](std::size_t) { ++ran; }); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) pool.submit([&] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 20);
  pool.wait_idle();  // idempotent on an idle pool
}

TEST(ThreadPool, ParallelMapPreservesOrder) {
  std::vector<int> items;
  for (int i = 0; i < 200; ++i) items.push_back(i);
  const auto out =
      parallel_map(items, [](int v) { return v * v; }, 4);
  ASSERT_EQ(out.size(), items.size());
  for (int i = 0; i < 200; ++i) EXPECT_EQ(out[i], i * i);
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

TEST(Accumulator, MergeEqualsSequential) {
  Rng rng(88);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.normal(5.0, 2.0));

  Accumulator whole;
  for (double x : xs) whole.add(x);

  Accumulator a, b, c;
  for (int i = 0; i < 100; ++i) a.add(xs[i]);
  for (int i = 100; i < 250; ++i) b.add(xs[i]);
  for (int i = 250; i < 300; ++i) c.add(xs[i]);

  Accumulator left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  Accumulator bc = b;     // a + (b + c)
  bc.merge(c);
  Accumulator right = a;
  right.merge(bc);

  for (const Accumulator* m : {&left, &right}) {
    EXPECT_EQ(m->count(), whole.count());
    EXPECT_DOUBLE_EQ(m->min(), whole.min());
    EXPECT_DOUBLE_EQ(m->max(), whole.max());
    EXPECT_NEAR(m->mean(), whole.mean(), 1e-10);
    EXPECT_NEAR(m->variance(), whole.variance(), 1e-8);
  }
  EXPECT_NEAR(left.mean(), right.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), right.variance(), 1e-8);
}

TEST(Accumulator, MergeMixedSampleRetentionDegradesToMoments) {
  Accumulator with_samples, moments_only;
  moments_only.set_keep_samples(false);
  for (int i = 0; i < 10; ++i) with_samples.add(i);
  for (int i = 10; i < 30; ++i) moments_only.add(i);

  with_samples.merge(moments_only);
  // A partial sample set must not leak into percentiles: the merged
  // accumulator keeps exact moments but drops samples entirely.
  EXPECT_EQ(with_samples.count(), 30u);
  EXPECT_TRUE(with_samples.samples().empty());
  EXPECT_NEAR(with_samples.mean(), 14.5, 1e-12);
  EXPECT_DOUBLE_EQ(with_samples.summary().p50, with_samples.mean());
  // ...and stays moments-only if more values arrive afterwards.
  with_samples.add(100.0);
  EXPECT_TRUE(with_samples.samples().empty());

  // Merging into an empty moments-only accumulator must not start
  // retaining the other side's samples.
  Accumulator empty_no_samples, donor;
  empty_no_samples.set_keep_samples(false);
  donor.add(1.0);
  empty_no_samples.merge(donor);
  EXPECT_EQ(empty_no_samples.count(), 1u);
  EXPECT_TRUE(empty_no_samples.samples().empty());
}

TEST(Accumulator, DisablingRetentionDiscardsSamples) {
  // Complete-or-empty invariant: freezing a sample array short of count()
  // would feed summary() percentiles over a partial subset.
  Accumulator acc;
  for (int i = 0; i < 4; ++i) acc.add(i);
  EXPECT_FALSE(acc.set_keep_samples(false));
  EXPECT_TRUE(acc.samples().empty());
  acc.add(100.0);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_TRUE(acc.samples().empty());
  EXPECT_DOUBLE_EQ(acc.summary().p50, acc.mean());
}

TEST(Accumulator, ReenablingRetentionAfterDropsIsRefused) {
  Accumulator acc;
  acc.set_keep_samples(false);
  acc.add(1.0);
  // The first value was already dropped; a late opt-in cannot complete the
  // set, so retention stays off instead of recording a partial tail.
  EXPECT_FALSE(acc.set_keep_samples(true));
  acc.add(2.0);
  EXPECT_TRUE(acc.samples().empty());
  EXPECT_EQ(acc.count(), 2u);

  // ...but toggling on an accumulator that never dropped anything is fine.
  Accumulator fresh;
  fresh.set_keep_samples(false);
  EXPECT_TRUE(fresh.set_keep_samples(true));
  fresh.add(3.0);
  Accumulator complete;
  complete.add(4.0);
  EXPECT_TRUE(complete.set_keep_samples(true));
  complete.add(5.0);
  EXPECT_EQ(complete.samples().size(), 2u);
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, empty;
  a.add(2.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
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

TEST(Sweep, AxisIndexLooksUpByName) {
  const auto spec = small_spec();
  EXPECT_EQ(spec.axis_index("x"), 0u);
  EXPECT_EQ(spec.axis_index("mode"), 1u);
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
  Accumulator init;
  init.set_keep_samples(spec.keep_samples);
  const auto generic = run_sweep_reduce(
      spec, init, noisy_trial,
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

TEST(GenericSweep, FoldMaySeeTheScenario) {
  auto spec = small_spec();
  spec.trials = 3;
  const auto result = run_sweep_reduce(
      spec, 0.0, [](const Scenario&, Rng&) { return 1.0; },
      [](double& acc, double x, const Scenario& s) {
        acc += x * s.value(0);  // scale by the cell's numeric level
      },
      2);
  EXPECT_DOUBLE_EQ(result.cell({0, 0}), 3 * 0.1);
  EXPECT_DOUBLE_EQ(result.cell({2, 1}), 3 * 0.9);
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

TEST(Report, ConvenienceReducers) {
  Accumulator acc;
  for (int i = 1; i <= 100; ++i) acc.add(i);
  EXPECT_DOUBLE_EQ(reduce_mean(acc), 50.5);
  EXPECT_DOUBLE_EQ(reduce_max(acc), 100.0);
  EXPECT_NEAR(reduce_p99(acc), 99.0, 1.0);

  // reduce_p99 plugged into a report renders the tail, not the mean.
  SweepSpec spec;
  spec.seed = 4;
  spec.trials = 100;
  spec.axes = {Axis::of_values("f", {0.0}), Axis::of_labels("arch", {"x"})};
  const auto result = run_sweep(
      spec,
      [](const Scenario& s, Rng&) { return static_cast<double>(s.trial()); },
      2);
  ReportSpec report;
  report.row_axis = 0;
  report.col_axis = 1;
  report.reduce = reduce_p99;
  report.format = [](double v) { return Table::fmt(v, 2); };
  const std::string rendered = to_table(result, report).to_string();
  EXPECT_NE(rendered.find("98.01"), std::string::npos);  // p99 of 0..99
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
