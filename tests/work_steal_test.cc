// Work-stealing scheduler (src/runtime/thread_pool.h): nested parallel_for
// determinism against a serial oracle, steal-order stress with randomized
// task durations, exception capture, cancellation and join from flat and
// inner nesting levels, recruitment of idle workers by a nested fork, and
// the auto-grain rule's bit-identity across worker counts. This suite
// (plus runtime_test) is what the CI ThreadSanitizer job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
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

TEST(WorkSteal, ThrowCancelsRemainingChunksAndJoinsEveryRunner) {
  // Index 0 throws at once; every other body is slow. The first chunk
  // runner to see the failure stops claiming, so most of the range never
  // runs, and no body may still be running when the exception surfaces.
  ThreadPool pool(2);
  constexpr std::size_t kN = 1600;  // 16 chunks of 100 on two workers
  std::atomic<int> ran{0}, active{0};
  try {
    pool.parallel_for(kN, [&](std::size_t i) {
      if (i == 0) throw ConfigError("first chunk failed");
      ++active;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      ++ran;
      --active;
    });
    ADD_FAILURE() << "parallel_for must rethrow";
  } catch (const ConfigError&) {
    EXPECT_EQ(active.load(), 0);  // every runner joined before the rethrow
  }
  EXPECT_LT(ran.load(), static_cast<int>(kN / 2));
  // The pool stays usable.
  std::atomic<int> after{0};
  pool.parallel_for(kN, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), static_cast<int>(kN));
}

TEST(WorkSteal, FirstExceptionWinsLaterOnesAreDropped) {
  ThreadPool pool(4);
  std::atomic<int> thrown{0};
  try {
    pool.parallel_for(16, [&](std::size_t i) {
      ++thrown;
      throw ConfigError("body " + std::to_string(i));
    });
    ADD_FAILURE() << "parallel_for must rethrow";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("body ", 0), 0u) << e.what();
  }
  // Each runner stops at its first throw: one per worker plus the caller.
  EXPECT_GE(thrown.load(), 1);
  EXPECT_LE(thrown.load(), pool.size() + 1);
  // Nothing is left over for the next call.
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 16);
}

// --- nested fork recruits idle workers --------------------------------------

TEST(WorkSteal, NestedForkOnAWorkerRecruitsIdleWorkers) {
  // One outer index runs on a pool worker and forks an inner range there.
  // Each inner body waits until a second pool worker has entered the inner
  // range, which only happens if idle workers steal the nested runners.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> on_worker{false};
  std::mutex mu;
  std::set<std::thread::id> inner_workers;
  const auto seen = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return inner_workers.size();
  };
  pool.parallel_for(2, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      // Hold the calling thread so a worker claims the other index.
      while (!on_worker.load()) std::this_thread::yield();
      return;
    }
    if (on_worker.exchange(true)) return;  // a worker claimed both indices
    pool.parallel_for(4, [&](std::size_t) {
      // The helping caller may steal an inner index too; it waits like the
      // workers but does not count as one.
      if (std::this_thread::get_id() != caller) {
        std::lock_guard<std::mutex> lock(mu);
        inner_workers.insert(std::this_thread::get_id());
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (seen() < 2 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    });
  });
  EXPECT_GE(seen(), 2u);
}

// --- auto-grain --------------------------------------------------------------

TEST(WorkSteal, AutoGrainBitIdenticalAcrossWorkersAndSizes) {
  // The chunk size is n / (workers * 8), at least 1: sizes below, at and
  // far above the worker count give different chunkings, never different
  // results.
  auto run = [&](int workers, std::size_t n) {
    ThreadPool pool(workers);
    std::vector<double> out(n);
    pool.parallel_for(n, [&](std::size_t i) {
      Rng rng = substream(7, i);
      out[i] = rng.normal(0.0, 1.0);
    });
    return out;
  };
  for (std::size_t n : {std::size_t{3}, std::size_t{64}, std::size_t{1037}}) {
    const auto oracle = run(1, n);
    for (int workers : {2, 8})
      EXPECT_EQ(run(workers, n), oracle) << "workers=" << workers << " n=" << n;
  }
}

}  // namespace
}  // namespace ihbd::runtime
