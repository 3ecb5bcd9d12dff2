// Work-stealing scheduler (src/runtime/thread_pool.h): nested parallel_for
// determinism against a serial oracle, steal-order stress with randomized
// task durations, exception capture/propagation through TaskGroup and from
// inner nesting levels, the auto-grain heuristic's bit-identity, and the
// process-wide shared() pool. This suite (plus runtime_test) is what the
// CI ThreadSanitizer job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/runtime/substream.h"
#include "src/runtime/thread_pool.h"

namespace ihbd::runtime {
namespace {

// Deterministic per-(cell, window) value with uneven per-index cost: the
// serial oracle for the sweep-in-replay shape (an outer grid whose cells
// each fan out an inner range on the SAME pool).
double cell_window_value(std::size_t cell, std::size_t window) {
  Rng rng = substream(1234, cell * 1024 + window);
  double x = static_cast<double>(cell);
  const int draws = 1 + static_cast<int>(rng.uniform_index(16));
  for (int k = 0; k < draws; ++k) x += rng.normal(0.0, 1.0);
  return x;
}

// --- nested determinism ----------------------------------------------------

TEST(WorkSteal, NestedParallelForMatchesSerialOracle) {
  constexpr std::size_t kCells = 6, kWindows = 40;
  std::vector<double> oracle(kCells * kWindows);
  for (std::size_t c = 0; c < kCells; ++c)
    for (std::size_t w = 0; w < kWindows; ++w)
      oracle[c * kWindows + w] = cell_window_value(c, w);

  for (int workers : {1, 2, 8}) {
    ThreadPool pool(workers);
    std::vector<double> out(kCells * kWindows, 0.0);
    pool.parallel_for(kCells, [&](std::size_t c) {
      // Inner fan-out on the same pool: stealable by idle sweep workers,
      // helped by this (blocked) cell task. Bodies own their (c, w) slot,
      // so the result is bit-identical for any steal order.
      pool.parallel_for(kWindows, [&](std::size_t w) {
        out[c * kWindows + w] = cell_window_value(c, w);
      });
    });
    EXPECT_EQ(out, oracle) << "workers=" << workers;  // bitwise
  }
}

TEST(WorkSteal, ThreeNestingLevelsCoverEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kA = 3, kB = 4, kC = 5;
  std::vector<std::atomic<int>> hits(kA * kB * kC);
  pool.parallel_for(kA, [&](std::size_t a) {
    pool.parallel_for(kB, [&](std::size_t b) {
      pool.parallel_for(kC, [&](std::size_t c) {
        ++hits[(a * kB + b) * kC + c];
      });
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- steal-order stress -----------------------------------------------------

TEST(WorkSteal, StressRandomizedDurationsAndNesting) {
  // Bodies spin for pseudo-random durations so claim order and steal
  // victims vary from round to round; every round must still execute every
  // (outer, inner) index exactly once.
  ThreadPool pool(8);
  for (std::uint64_t round = 0; round < 15; ++round) {
    constexpr std::size_t kOuter = 61;
    std::vector<std::atomic<int>> outer_hits(kOuter);
    std::atomic<long long> inner_total{0};
    long long expect_inner = 0;
    for (std::size_t i = 0; i < kOuter; ++i)
      expect_inner += 1 + static_cast<long long>(i % 5);

    pool.parallel_for(kOuter, [&](std::size_t i) {
      Rng rng = substream(round, i);
      volatile double sink = 0.0;
      const int spin = static_cast<int>(rng.uniform_index(3000));
      for (int k = 0; k < spin; ++k) sink = sink + static_cast<double>(k);
      pool.parallel_for(1 + i % 5, [&](std::size_t) {
        inner_total.fetch_add(1, std::memory_order_relaxed);
      });
      ++outer_hits[i];
    });
    for (const auto& h : outer_hits) ASSERT_EQ(h.load(), 1);
    EXPECT_EQ(inner_total.load(), expect_inner) << "round " << round;
  }
}

// --- exception capture and propagation --------------------------------------

TEST(WorkSteal, ExceptionFromInnerNestingLevelPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::size_t c) {
                          pool.parallel_for(16, [&](std::size_t w) {
                            if (c == 3 && w == 11)
                              throw ConfigError("inner nesting failure");
                          });
                        }),
      ConfigError);
  // The pool must survive a failed nested fan-out.
  std::atomic<int> ran{0};
  pool.parallel_for(50, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 50);
}

TEST(TaskGroup, CapturesTaskExceptionAndRethrowsAtWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  group.run([&] { ++ran; });
  group.run([] { throw ConfigError("task failed"); });
  group.run([&] { ++ran; });
  EXPECT_THROW(group.wait(), ConfigError);
  EXPECT_EQ(ran.load(), 2);
  EXPECT_FALSE(group.failed());  // consumed by wait; group is reusable
  group.run([&] { ++ran; });
  group.wait();
  EXPECT_EQ(ran.load(), 3);
}

TEST(TaskGroup, FirstExceptionWinsLaterOnesAreDropped) {
  ThreadPool pool(4);
  TaskGroup group(pool);
  for (int i = 0; i < 16; ++i)
    group.run([] { throw ConfigError("one of many"); });
  EXPECT_THROW(group.wait(), ConfigError);
  group.wait();  // nothing pending, nothing stored
}

TEST(ThreadPool, SubmitExceptionIsRethrownAtWaitIdle) {
  // submit()ted tasks belong to the pool's internal root group: an escaping
  // exception no longer terminates the process, it surfaces at wait_idle.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&] { ++ran; });
  pool.submit([] { throw ConfigError("submitted task failed"); });
  pool.submit([&] { ++ran; });
  EXPECT_THROW(pool.wait_idle(), ConfigError);
  EXPECT_EQ(ran.load(), 2);
  // Consumed: the pool stays usable and the next wait_idle is clean.
  pool.submit([&] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 3);
}

// --- fork/join from tasks and external threads -------------------------------

TEST(TaskGroup, ForkJoinInsideAPoolTaskRecruitsWorkers) {
  ThreadPool pool(4);
  std::atomic<int> inner{0};
  TaskGroup outer(pool);
  outer.run([&] {
    TaskGroup nested(pool);
    for (int i = 0; i < 32; ++i) nested.run([&] { ++inner; });
    nested.wait();  // helping join from a worker thread
  });
  outer.wait();
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, TaskForkingDuringShutdownDrainCompletes) {
  // Destroying the pool while a submitted task is still queued must let the
  // shutdown drain run it — INCLUDING any tasks it forks (a nested
  // parallel_for enqueues during the drain; that must not trip the
  // stopping-pool assertion reserved for non-worker threads). Looped to hit
  // both interleavings: worker pops the task before vs after stop is set.
  for (int i = 0; i < 50; ++i) {
    std::atomic<int> ran{0};
    {
      ThreadPool pool(1);
      pool.submit([&] {
        pool.parallel_for(10, [&](std::size_t) { ++ran; });
      });
      // No wait_idle(): the destructor races the worker claiming the task.
    }
    ASSERT_EQ(ran.load(), 10) << "iteration " << i;
  }
}

TEST(TaskGroup, DestructorJoinsOutstandingTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) group.run([&] { ++ran; });
    // No wait(): the destructor must join (dropping exceptions) so tasks
    // never outlive the state they captured.
  }
  EXPECT_EQ(ran.load(), 8);
}

// --- auto-grain --------------------------------------------------------------

TEST(WorkSteal, AutoGrainBitIdenticalAcrossGrainsAndWorkers) {
  constexpr std::size_t kN = 1037;
  auto run = [&](int workers, std::size_t grain) {
    ThreadPool pool(workers);
    std::vector<double> out(kN);
    pool.parallel_for(
        kN,
        [&](std::size_t i) {
          Rng rng = substream(7, i);
          out[i] = rng.normal(0.0, 1.0);
        },
        grain);
    return out;
  };
  const auto oracle = run(1, 1);
  for (int workers : {2, 8})
    for (std::size_t grain : {std::size_t{0},  // 0 = auto: n / (workers * 8)
                              std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{5000}})  // one chunk > n
      EXPECT_EQ(run(workers, grain), oracle)
          << "workers=" << workers << " grain=" << grain;
}

// --- shared pool -------------------------------------------------------------

TEST(SharedPool, IsProcessWideAndUsable) {
  ThreadPool& a = ThreadPool::shared();
  EXPECT_EQ(&a, &ThreadPool::shared());
  EXPECT_GE(a.size(), 1);
  std::atomic<int> ran{0};
  a.parallel_for(100, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 100);
}

}  // namespace
}  // namespace ihbd::runtime
