// Event-driven incremental replay (src/fault/transitions.h +
// src/topo/incremental.h): transition-cursor semantics (zero-length events,
// same-day up/down, overlapping intervals, slice boundaries, the
// monotonicity contract, word-delta contract), the grid word-delta timeline
// against the exact one folded onto the grid, the KHopRing and per-island
// allocators' apply_words against allocate(), and the randomized end-to-end
// property that the fast replay is bit-identical to the serial
// evaluate_waste_over_trace oracle across architectures, TP sizes and
// trace models.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/fault/generator.h"
#include "src/fault/packed_mask.h"
#include "src/fault/physics_generator.h"
#include "src/fault/trace.h"
#include "src/fault/transitions.h"
#include "src/obs/metrics.h"
#include "src/topo/baselines.h"
#include "src/topo/incremental.h"
#include "src/topo/khop_ring.h"
#include "src/topo/waste.h"

namespace ihbd::topo {
namespace {

fault::FaultTrace gen_trace(int nodes, double days, std::uint64_t seed) {
  fault::TraceGenConfig cfg;
  cfg.node_count = nodes;
  cfg.duration_days = days;
  cfg.seed = seed;
  return fault::generate_trace(cfg);
}

fault::FaultTrace physics_trace(fault::TraceModel model, int nodes,
                                double days) {
  fault::PhysicsTraceConfig cfg = model == fault::TraceModel::kStorm
                                      ? fault::storm_trace_defaults()
                                      : fault::physics_trace_defaults();
  cfg.node_count = nodes;
  cfg.duration_days = days;
  return fault::generate_physics_trace(cfg);
}

void expect_same_result(const TraceWasteResult& a, const TraceWasteResult& b) {
  EXPECT_EQ(a.waste_ratio.t, b.waste_ratio.t);
  EXPECT_EQ(a.waste_ratio.v, b.waste_ratio.v);
  EXPECT_EQ(a.usable_gpus.t, b.usable_gpus.t);
  EXPECT_EQ(a.usable_gpus.v, b.usable_gpus.v);
  EXPECT_EQ(a.waste_summary.count, b.waste_summary.count);
  EXPECT_EQ(a.waste_summary.mean, b.waste_summary.mean);
  EXPECT_EQ(a.waste_summary.stddev, b.waste_summary.stddev);
  EXPECT_EQ(a.waste_summary.min, b.waste_summary.min);
  EXPECT_EQ(a.waste_summary.max, b.waste_summary.max);
  EXPECT_EQ(a.waste_summary.p50, b.waste_summary.p50);
  EXPECT_EQ(a.waste_summary.p90, b.waste_summary.p90);
  EXPECT_EQ(a.waste_summary.p99, b.waste_summary.p99);
}

// --- transition timeline --------------------------------------------------

TEST(TransitionTimeline, SortedAndComplete) {
  const auto trace = gen_trace(64, 30.0, 7);
  const auto edges = trace.transitions();
  ASSERT_EQ(edges.size(), trace.events().size() * 2);
  for (std::size_t i = 1; i < edges.size(); ++i)
    EXPECT_LE(edges[i - 1].day, edges[i].day);
  std::size_t downs = 0;
  for (const auto& e : edges) downs += e.down ? 1 : 0;
  EXPECT_EQ(downs, trace.events().size());
}

// --- cursor semantics -----------------------------------------------------

/// The nodes whose bit a set of word deltas flips, ascending.
std::vector<int> flipped_nodes(const std::vector<fault::WordDelta>& deltas) {
  std::vector<int> nodes;
  for (const auto& d : deltas)
    fault::for_each_set_bit(d.xor_bits, d.word,
                            [&](int i) { nodes.push_back(i); });
  return nodes;
}

TEST(FaultMaskCursor, MatchesFaultyAtOnGeneratedTrace) {
  const auto trace = gen_trace(96, 45.0, 11);
  fault::FaultMaskCursor cursor(trace);
  fault::PackedMask replayed(trace.node_count());
  for (const double day : trace.sample_days(0.25)) {
    const auto& deltas = cursor.advance_to_words(day);
    int prev_word = -1;
    for (const auto& d : deltas) {
      // Contract: ascending word index, nonzero XOR bits, no tail bits.
      EXPECT_GT(d.word, prev_word) << "day " << day;
      EXPECT_NE(d.xor_bits, 0u) << "day " << day;
      prev_word = d.word;
      replayed.apply_xor(d.word, d.xor_bits);
    }
    EXPECT_EQ(cursor.mask(), trace.faulty_at(day)) << "day " << day;
    // The reported deltas alone must transform the previous mask into the
    // current one (no silent changes, no spurious reports).
    EXPECT_EQ(replayed, cursor.mask()) << "day " << day;
  }
  // Edges past the last sample day (repairs completing after the trace
  // window) may remain; advancing past every event drains the timeline and
  // clears the mask.
  cursor.advance_to_words(std::numeric_limits<double>::max());
  EXPECT_EQ(cursor.mask().popcount(), 0);
}

TEST(FaultMaskCursor, ZeroLengthAndSameDayAndOverlappingEvents) {
  // node 0: zero-length event (never faulty: start <= d < end is empty)
  // node 1: overlapping intervals [1,3) and [2,5) (faulty through day 4)
  // node 2: back-to-back [1,2) + [2,4): repair and re-fault on day 2 — the
  //         bit never clears, so day 2 must report no flip for node 2
  // node 3: plain [0,2)
  const fault::FaultTrace trace(
      5, 6.0,
      {{0, 2.0, 2.0}, {1, 1.0, 3.0}, {1, 2.0, 5.0}, {2, 1.0, 2.0},
       {2, 2.0, 4.0}, {3, 0.0, 2.0}});
  fault::FaultMaskCursor cursor(trace);
  const auto advance = [&](double day) {
    return flipped_nodes(cursor.advance_to_words(day));
  };

  EXPECT_EQ(advance(0.0), (std::vector<int>{3}));
  EXPECT_EQ(advance(1.0), (std::vector<int>{1, 2}));
  // Day 2: node 0's zero-length event cancels itself, node 1 stays down
  // (second interval active), node 2's up+down cancel, node 3 comes up.
  EXPECT_EQ(advance(2.0), (std::vector<int>{3}));
  const std::vector<bool> day2{false, true, true, false, false};
  EXPECT_EQ(cursor.mask(), fault::PackedMask(day2));
  EXPECT_EQ(advance(3.0), (std::vector<int>{}));  // 1 still overlapped
  EXPECT_EQ(advance(4.0), (std::vector<int>{2}));
  EXPECT_EQ(advance(5.0), (std::vector<int>{1}));
  EXPECT_EQ(cursor.mask().popcount(), 0);
  // Repeated advance to the same day is a no-op.
  EXPECT_TRUE(cursor.advance_to_words(5.0).empty());
}

TEST(FaultMaskCursor, GridAlignedCursorMatchesFaultyAt) {
  // The grid constructor binds the word engine to the per-sample-day folded
  // timeline (FaultTrace::word_delta_timeline(step)); on the grid it must
  // be indistinguishable from the exact-day cursor — including a fresh
  // cursor fast-forwarded to a mid-grid day, the window-start case where
  // the whole prefix folds in one multi-group advance.
  const auto trace = gen_trace(96, 45.0, 11);
  for (const double step : {1.0, 0.25, 0.7}) {
    SCOPED_TRACE(step);
    const auto days = trace.sample_days(step);
    fault::FaultMaskCursor cursor(trace, step);
    for (const double day : days) {
      const auto& deltas = cursor.advance_to_words(day);
      int prev_word = -1;
      for (const auto& d : deltas) {
        EXPECT_GT(d.word, prev_word) << "day " << day;
        EXPECT_NE(d.xor_bits, 0u) << "day " << day;
        prev_word = d.word;
      }
      EXPECT_EQ(cursor.mask(), trace.faulty_at(day)) << "day " << day;
    }
    // Window start: jump a fresh grid cursor straight to the middle.
    const double mid = days[days.size() / 2];
    fault::FaultMaskCursor jumped(trace, step);
    jumped.advance_to_words(mid);
    EXPECT_EQ(jumped.mask(), trace.faulty_at(mid));
    // Beyond the last grid day the exact-day tail groups still apply.
    jumped.advance_to_words(std::numeric_limits<double>::max());
    EXPECT_EQ(jumped.mask().popcount(), 0);
  }
}

// --- grid word-delta timeline --------------------------------------------

/// The reference grid timeline: the exact word_delta_timeline() groups with
/// days in (grid[k-1], grid[k]] XORed into one group per sample day, zero
/// words and empty days dropped; groups past the grid keep their own days.
fault::WordDeltaTimeline fold_exact_onto_grid(const fault::FaultTrace& trace,
                                              double step) {
  const fault::WordDeltaTimeline& exact = *trace.word_delta_timeline();
  fault::WordDeltaTimeline out;
  out.offsets.push_back(0);
  const auto close_group = [&out](double day) {
    if (out.deltas.size() == static_cast<std::size_t>(out.offsets.back()))
      return;
    out.days.push_back(day);
    out.offsets.push_back(static_cast<int>(out.deltas.size()));
  };
  std::size_t g = 0;
  for (const double day : trace.sample_days(step)) {
    std::map<int, std::uint64_t> words;  // word-ascending
    for (; g < exact.days.size() && exact.days[g] <= day; ++g)
      for (int i = exact.offsets[g]; i < exact.offsets[g + 1]; ++i)
        words[exact.deltas[static_cast<std::size_t>(i)].word] ^=
            exact.deltas[static_cast<std::size_t>(i)].xor_bits;
    for (const auto& [word, bits] : words)
      if (bits != 0) out.deltas.push_back({word, bits});
    close_group(day);
  }
  for (; g < exact.days.size(); ++g) {
    for (int i = exact.offsets[g]; i < exact.offsets[g + 1]; ++i)
      out.deltas.push_back(exact.deltas[static_cast<std::size_t>(i)]);
    close_group(exact.days[g]);
  }
  return out;
}

/// Edge cases for the grid fold on a 130-node (three-word), 10-day trace,
/// with some edges placed exactly on the sample days of `step`.
fault::FaultTrace grid_edge_case_trace(double step) {
  const double duration = 10.0;
  const auto grid = fault::FaultTrace(1, duration, {}).sample_days(step);
  const double g1 = grid[1], g2 = grid[grid.size() / 2];
  return fault::FaultTrace(
      130, duration,
      {{0, 2.0, 2.0},     {0, g1, g1},        // zero-length events
       {1, 1.0, 3.0},     {1, 2.0, 5.0},      // overlapping on one node
       {1, 1.5, 2.5},                         // nested inside both
       {2, 1.0, 2.0},     {2, 2.0, 4.0},      // back-to-back
       {3, g1, g2},       {64, g2, grid.back()},  // edges on sample days
       {65, 4.0, duration},                   // ends exactly at the end
       {66, 0.1, 0.2},                        // down+up inside one step
       {67, -1.0, 0.0},   {68, -2.0, 0.5},    // starts before day 0
       {127, 9.999, 12.0}, {128, 10.5, 11.0},  // past the last sample
       {129, 1.0, 15.0},  {129, 10.5, 20.0}});
}

void expect_same_timeline(const fault::WordDeltaTimeline& got,
                          const fault::WordDeltaTimeline& want) {
  EXPECT_EQ(got.days, want.days);
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.deltas, want.deltas);
}

TEST(WordDeltaTimeline, GridFoldMatchesExactFoldOnTheGrid) {
  std::vector<std::pair<std::string, fault::FaultTrace>> traces;
  traces.emplace_back("poisson", gen_trace(96, 45.0, 11));
  traces.emplace_back("poisson 700 nodes", gen_trace(700, 60.0, 3));
  for (const auto model : {fault::TraceModel::kPhysics,
                           fault::TraceModel::kStorm})
    traces.emplace_back(fault::trace_model_name(model),
                        physics_trace(model, 144, 60.0));
  for (const double step : {1.0, 0.25, 0.7, 1.0 / 24.0}) {
    SCOPED_TRACE("step " + std::to_string(step));
    {
      SCOPED_TRACE("edge cases");
      const auto trace = grid_edge_case_trace(step);
      expect_same_timeline(*trace.word_delta_timeline(step),
                           fold_exact_onto_grid(trace, step));
    }
    for (const auto& [label, trace] : traces) {
      SCOPED_TRACE(label);
      expect_same_timeline(*trace.word_delta_timeline(step),
                           fold_exact_onto_grid(trace, step));
    }
  }
}

TEST(WordDeltaTimeline, ConcurrentCallersShareOneGridBuild) {
  const auto trace = gen_trace(512, 120.0, 9);  // fresh: nothing cached yet
  obs::Counter& builds = obs::counter("fault.grid_timeline_builds");
  const std::uint64_t before = builds.value();
  obs::set_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const fault::WordDeltaTimeline>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[static_cast<std::size_t>(t)] = trace.word_delta_timeline(1.0 / 24.0);
    });
  for (auto& thread : threads) thread.join();
  obs::set_enabled(false);
  for (const auto& timeline : got) EXPECT_EQ(timeline.get(), got[0].get());
  EXPECT_EQ(builds.value() - before, 1u);
}

// The documented forward-only contract (transitions.h): a cursor cannot
// rewind, and the violation must trip the IHBD_EXPECTS guard rather than
// silently corrupt the mask.
using FaultMaskCursorDeathTest = ::testing::Test;

TEST(FaultMaskCursorDeathTest, RejectsNonMonotonicAdvance) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto trace = gen_trace(32, 20.0, 23);
  fault::FaultMaskCursor cursor(trace);
  cursor.advance_to_words(10.0);
  EXPECT_DEATH(cursor.advance_to_words(9.5), "day >= day_");
  EXPECT_DEATH(cursor.advance_to_words(0.0), "day >= day_");
  // NaN never satisfies day >= day_, so it is rejected too.
  EXPECT_DEATH(
      cursor.advance_to_words(std::numeric_limits<double>::quiet_NaN()),
      "day >= day_");
  // Equal day remains a legal no-op.
  EXPECT_TRUE(cursor.advance_to_words(10.0).empty());
}

TEST(FaultMaskCursor, SliceBoundariesMatchTheFullTrace) {
  const auto trace = gen_trace(64, 40.0, 3);
  const double lo = 12.0, hi = 23.0;
  const auto sliced = trace.slice(lo, hi);
  fault::FaultMaskCursor cursor(sliced);
  for (double day = lo; day <= hi; day += 0.5) {
    cursor.advance_to_words(day);
    EXPECT_EQ(cursor.mask(), trace.faulty_at(day)) << "day " << day;
  }
}

// --- KHopRing incremental allocator vs allocate() -------------------------

void expect_same_aggregates(const Allocation& a, const Allocation& b,
                            const std::string& what) {
  EXPECT_EQ(a.total_gpus, b.total_gpus) << what;
  EXPECT_EQ(a.faulty_gpus, b.faulty_gpus) << what;
  EXPECT_EQ(a.usable_gpus, b.usable_gpus) << what;
  EXPECT_EQ(a.wasted_healthy_gpus, b.wasted_healthy_gpus) << what;
}

fault::PackedMask random_mask(int n, double p, Rng& rng) {
  fault::PackedMask mask(n);
  for (int i = 0; i < n; ++i) mask.set(i, rng.bernoulli(p));
  return mask;
}

/// Flip `nodes` in `mask`, in order, and report each flip as its own
/// one-bit WordDelta. A node listed twice nets out of the mask but stays
/// in the deltas, which the allocators must tolerate as spurious.
std::vector<fault::WordDelta> flip_nodes(fault::PackedMask& mask,
                                         const std::vector<int>& nodes) {
  std::vector<fault::WordDelta> deltas;
  for (const int x : nodes) {
    mask.flip(x);
    deltas.push_back({x / fault::PackedMask::kWordBits,
                      std::uint64_t{1} << (x % fault::PackedMask::kWordBits)});
  }
  return deltas;
}

/// 1-3 random node flips, possibly repeating a node.
std::vector<int> random_flip_batch(int n, Rng& rng) {
  std::vector<int> nodes;
  const int batch = 1 + static_cast<int>(rng.uniform_index(3));
  for (int b = 0; b < batch; ++b)
    nodes.push_back(static_cast<int>(rng.uniform_index(n)));
  return nodes;
}

/// 1-3 random adjacent node pairs {2j, 2j+1}, each flipped as a unit: the
/// shape split_to_half_nodes gives a trace, where both halves of a node
/// fail and recover together. `n` must be even.
std::vector<int> random_pair_batch(int n, Rng& rng) {
  std::vector<int> nodes;
  const int batch = 1 + static_cast<int>(rng.uniform_index(3));
  for (int b = 0; b < batch; ++b) {
    const int j = static_cast<int>(rng.uniform_index(n / 2));
    nodes.push_back(2 * j);
    nodes.push_back(2 * j + 1);
  }
  return nodes;
}

/// A random mask whose adjacent pairs {2j, 2j+1} are faulty together.
fault::PackedMask random_pair_mask(int n, double p, Rng& rng) {
  fault::PackedMask mask(n);
  for (int j = 0; j < n / 2; ++j) {
    const bool down = rng.bernoulli(p);
    mask.set(2 * j, down);
    mask.set(2 * j + 1, down);
  }
  return mask;
}

TEST(KHopRingIncremental, RandomFlipSequencesMatchAllocate) {
  const char* const kCases[] = {"alloc.khop.interior", "alloc.khop.cut_move",
                                "alloc.khop.split", "alloc.khop.merge"};
  std::uint64_t case_before[4];
  for (int c = 0; c < 4; ++c) case_before[c] = obs::counter(kCases[c]).value();
  obs::set_enabled(true);
  Rng rng(1234);
  for (const bool ring_variant : {true, false}) {
    // 48 nodes fit one word; 130 span two full words and a 2-bit tail, so
    // split popcounts and wrap arcs cross word boundaries.
    for (const int n : {48, 130}) {
      for (const int k : {1, 2, 3}) {
        for (const int m : {2, 4, 8}) {
          // Pair-shaped flips only for K=2, the replay workload's shape.
          for (const bool pairs : {false, true}) {
            if (pairs && k != 2) continue;
            const int g = 4;
            const KHopRing ring(n, g, k, ring_variant);
            KHopRingIncrementalAllocator inc(ring, m * g);
            // Start from a random mask, then walk 400 random flip batches.
            fault::PackedMask mask = pairs ? random_pair_mask(n, 0.2, rng)
                                           : random_mask(n, 0.2, rng);
            inc.apply_words(mask, {});
            for (int step = 0; step < 400; ++step) {
              const auto deltas = flip_nodes(
                  mask, pairs ? random_pair_batch(n, rng)
                              : random_flip_batch(n, rng));
              const auto& got = inc.apply_words(mask, deltas);
              const auto want = ring.allocate(mask, m * g);
              expect_same_aggregates(
                  got, want,
                  (ring_variant ? "ring" : "line") + std::string(" n=") +
                      std::to_string(n) + " k=" + std::to_string(k) +
                      " m=" + std::to_string(m) +
                      (pairs ? " pairs" : "") + " step " +
                      std::to_string(step));
            }
          }
        }
      }
    }
  }
  obs::set_enabled(false);
  // Every flip case (interior, cut move, split, merge) was hit.
  if (IHBD_OBS) {
    for (int c = 0; c < 4; ++c)
      EXPECT_GT(obs::counter(kCases[c]).value(), case_before[c]) << kCases[c];
  }
}

TEST(KHopRingIncremental, ExtremeMasksMatchAllocate) {
  const int n = 24, g = 4, tp = 16;
  for (const bool ring_variant : {true, false}) {
    const KHopRing ring(n, g, 2, ring_variant);
    KHopRingIncrementalAllocator inc(ring, tp);
    fault::PackedMask mask(n);
    inc.apply_words(mask, {});  // all healthy
    // Take every node down one by one, then bring them all back.
    for (int x = 0; x < n; ++x) {
      const auto& got = inc.apply_words(mask, flip_nodes(mask, {x}));
      expect_same_aggregates(got, ring.allocate(mask, tp),
                             "down x=" + std::to_string(x));
    }
    for (int x = n - 1; x >= 0; --x) {
      const auto& got = inc.apply_words(mask, flip_nodes(mask, {x}));
      expect_same_aggregates(got, ring.allocate(mask, tp),
                             "up x=" + std::to_string(x));
    }
  }
}

// --- per-island baseline allocators vs allocate() -------------------------

/// The island-decomposable baselines on a 144 x 4 cluster (the smallest
/// every §6.1 baseline accepts, incl. NVL-576), with direct constructors
/// for the concrete allocator classes so the test exercises each
/// implementation rather than whatever the dispatch picks.
struct BaselineCase {
  std::unique_ptr<HbdArchitecture> arch;
  std::unique_ptr<IncrementalAllocator> allocator;
  int tp = 0;
};

std::vector<BaselineCase> baseline_cases(int nodes, int gpus, int tp) {
  std::vector<BaselineCase> cases;
  const auto add = [&](std::unique_ptr<HbdArchitecture> arch,
                       std::unique_ptr<IncrementalAllocator> alloc) {
    cases.push_back({std::move(arch), std::move(alloc), tp});
  };
  {
    auto bs = std::make_unique<BigSwitch>(nodes, gpus);
    auto alloc = std::make_unique<IslandModuloAllocator>(
        *bs, bs->island_partition(), tp);
    add(std::move(bs), std::move(alloc));
  }
  for (const int hbd : {36, 72, 576}) {
    auto nvl = std::make_unique<NvlSwitch>(nodes, gpus, hbd);
    auto alloc = std::make_unique<IslandModuloAllocator>(
        *nvl, nvl->island_partition(), tp);
    add(std::move(nvl), std::move(alloc));
  }
  {
    auto tpu = std::make_unique<TpuV4>(nodes, gpus);
    auto alloc =
        tp > tpu->cube_gpus()
            ? std::unique_ptr<IncrementalAllocator>(
                  std::make_unique<TpuCubePoolAllocator>(*tpu, tp))
            : std::make_unique<IslandModuloAllocator>(
                  *tpu, tpu->island_partition(), tp);
    add(std::move(tpu), std::move(alloc));
  }
  {
    auto sip = std::make_unique<SipRing>(nodes, gpus);
    auto alloc = std::make_unique<SipRingIncrementalAllocator>(*sip, tp);
    add(std::move(sip), std::move(alloc));
  }
  return cases;
}

TEST(BaselineIncremental, RandomFlipSequencesMatchAllocate) {
  Rng rng(4321);
  const int n = 144, g = 4;
  // TP sweep covers every regime: in-island fragmentation (8, 64),
  // TPUv4's pooled clean-cube regime and NVL-36/72 whole-island waste
  // (128), and m larger than the whole cluster (640).
  for (const int tp : {8, 64, 128, 640}) {
    for (auto& c : baseline_cases(n, g, tp)) {
      fault::PackedMask mask = random_mask(n, 0.15, rng);
      c.allocator->apply_words(mask, {});
      for (int step = 0; step < 400; ++step) {
        // Double flips of one node stay in the deltas: the allocator must
        // tolerate spurious (net-zero) entries.
        const auto deltas = flip_nodes(mask, random_flip_batch(n, rng));
        const auto& got = c.allocator->apply_words(mask, deltas);
        const auto want = c.arch->allocate(mask, tp);
        expect_same_aggregates(got, want,
                               c.arch->name() + " tp=" + std::to_string(tp) +
                                   " step " + std::to_string(step));
      }
    }
  }
}

TEST(BaselineIncremental, DegenerateMasksMatchAllocate) {
  const int n = 144, g = 4;
  for (const int tp : {32, 128}) {
    for (auto& c : baseline_cases(n, g, tp)) {
      fault::PackedMask mask(n);
      // All healthy, then take one island (the first 18 nodes — one NVL-72
      // island, more than one TPUv4 cube span) fully down node by node,
      // then the whole cluster down, then everything back up.
      expect_same_aggregates(c.allocator->apply_words(mask, {}),
                             c.arch->allocate(mask, tp),
                             c.arch->name() + " all-healthy");
      for (int x = 0; x < n; ++x) {
        const auto deltas = flip_nodes(mask, {x});
        expect_same_aggregates(
            c.allocator->apply_words(mask, deltas), c.arch->allocate(mask, tp),
            c.arch->name() + " tp=" + std::to_string(tp) + " down x=" +
                std::to_string(x));
      }
      for (int x = n - 1; x >= 0; --x) {
        const auto deltas = flip_nodes(mask, {x});
        expect_same_aggregates(
            c.allocator->apply_words(mask, deltas), c.arch->allocate(mask, tp),
            c.arch->name() + " tp=" + std::to_string(tp) + " up x=" +
                std::to_string(x));
      }
    }
  }
}

TEST(BaselineIncremental, InitializesFromDegenerateFirstMask) {
  // First apply_words() seeds wholesale from the mask: start from
  // all-faulty and from one-island-down instead of from all-healthy.
  const int n = 144, g = 4, tp = 32;
  for (const bool all_faulty : {true, false}) {
    for (auto& c : baseline_cases(n, g, tp)) {
      fault::PackedMask mask(n);
      // All faulty, or exactly one NVL-36 island (9 nodes) fully down.
      for (int x = 0; x < (all_faulty ? n : 9); ++x) mask.set(x, true);
      expect_same_aggregates(
          c.allocator->apply_words(mask, {}), c.arch->allocate(mask, tp),
          c.arch->name() + (all_faulty ? " all-faulty" : " island-down"));
      // One repair out of the degenerate state.
      const auto deltas = flip_nodes(mask, {0});
      expect_same_aggregates(c.allocator->apply_words(mask, deltas),
                             c.arch->allocate(mask, tp),
                             c.arch->name() + " first repair");
    }
  }
}

TEST(BaselineIncremental, DispatchCoversEveryPaperArchitecture) {
  // make_incremental_allocator must hand every §6.1 architecture a true
  // incremental allocator whose aggregates match allocate() — including
  // TPUv4 on both sides of the cube-size regime boundary.
  const int nodes = 144;
  Rng rng(77);
  auto archs = make_paper_architectures(nodes, 4);
  for (const auto& arch : archs) {
    for (const int tp : {8, 64, 128}) {
      const auto allocator = make_incremental_allocator(*arch, tp);
      fault::PackedMask mask = random_mask(nodes, 0.1, rng);
      expect_same_aggregates(allocator->apply_words(mask, {}),
                             arch->allocate(mask, tp),
                             arch->name() + " tp=" + std::to_string(tp));
      for (int step = 0; step < 32; ++step) {
        const int x = static_cast<int>(rng.uniform_index(nodes));
        const auto deltas = flip_nodes(mask, {x});
        expect_same_aggregates(
            allocator->apply_words(mask, deltas), arch->allocate(mask, tp),
            arch->name() + " tp=" + std::to_string(tp) + " step " +
                std::to_string(step));
      }
    }
  }
}

/// An out-of-tree architecture with no incremental allocator.
class UnknownArchitecture : public HbdArchitecture {
 public:
  std::string name() const override { return "Unknown-HBD"; }
  int node_count() const override { return 8; }
  int gpus_per_node() const override { return 4; }
  Allocation allocate(const fault::PackedMask&, int) const override {
    return {};
  }
};

TEST(BaselineIncremental, DispatchRejectsUnknownArchitecture) {
  const UnknownArchitecture arch;
  try {
    make_incremental_allocator(arch, 8);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("Unknown-HBD"), std::string::npos)
        << e.what();
  }
}

// --- word-parallel apply_words vs allocate() ------------------------------

/// Flip `batch` random nodes of `mask` and return the net word deltas (a
/// node flipped twice in one batch nets out of its word's XOR bits; a word
/// whose bits all net out is dropped), exactly what a cursor would emit.
std::vector<fault::WordDelta> random_word_batch(fault::PackedMask& mask,
                                                int batch, Rng& rng) {
  std::vector<std::uint64_t> xor_by_word(
      static_cast<std::size_t>(mask.word_count()), 0);
  for (int b = 0; b < batch; ++b) {
    const int x = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(mask.size())));
    xor_by_word[static_cast<std::size_t>(x / fault::PackedMask::kWordBits)] ^=
        std::uint64_t{1} << (x % fault::PackedMask::kWordBits);
  }
  std::vector<fault::WordDelta> deltas;
  for (int w = 0; w < mask.word_count(); ++w) {
    const std::uint64_t bits = xor_by_word[static_cast<std::size_t>(w)];
    if (bits == 0) continue;
    mask.apply_xor(w, bits);
    deltas.push_back({w, bits});
  }
  return deltas;
}

TEST(ApplyWords, RandomWordBatchesMatchAllocate) {
  // Every allocator the dispatch hands out (KHop arc lengths, the
  // per-island baselines, TPUv4's pooled regime): word deltas in,
  // aggregates bit-identical to a from-scratch allocate().
  Rng rng(9999);
  const int n = 144, g = 4;
  std::vector<BaselineCase> cases;
  for (const int tp : {8, 64, 128}) {
    for (auto& c : baseline_cases(n, g, tp)) cases.push_back(std::move(c));
    auto ring = std::make_unique<KHopRing>(n, g, 2);
    auto ring_alloc = std::make_unique<KHopRingIncrementalAllocator>(*ring, tp);
    cases.push_back({std::move(ring), std::move(ring_alloc), tp});
  }
  for (auto& c : cases) {
    fault::PackedMask mask(n);
    for (int i = 0; i < n; ++i) mask.set(i, rng.bernoulli(0.15));
    c.allocator->apply_words(mask, {});
    for (int step = 0; step < 200; ++step) {
      const int batch = 1 + static_cast<int>(rng.uniform_index(3));
      const auto deltas = random_word_batch(mask, batch, rng);
      const auto& got = c.allocator->apply_words(mask, deltas);
      const auto want = c.arch->allocate(mask, c.tp);
      expect_same_aggregates(got, want,
                             c.arch->name() + " tp=" + std::to_string(c.tp) +
                                 " step " + std::to_string(step));
    }
  }
}

TEST(ApplyWords, ToleratesSpuriousDeltas) {
  // A delta whose word already matches the mask (net-zero change) must be
  // ignored.
  const int n = 144, g = 4, tp = 32;
  for (auto& c : baseline_cases(n, g, tp)) {
    fault::PackedMask mask(n);
    for (int x = 0; x < 9; ++x) mask.set(x, true);
    c.allocator->apply_words(mask, {});
    // Claim every word changed; none did.
    std::vector<fault::WordDelta> spurious;
    for (int w = 0; w < mask.word_count(); ++w)
      spurious.push_back({w, mask.valid_mask(w)});
    expect_same_aggregates(c.allocator->apply_words(mask, spurious),
                           c.arch->allocate(mask, tp),
                           c.arch->name() + " spurious");
    // And a real change still lands after the spurious round.
    mask.set(100, true);
    expect_same_aggregates(
        c.allocator->apply_words(
            mask, {{100 / fault::PackedMask::kWordBits,
                    std::uint64_t{1} << (100 % fault::PackedMask::kWordBits)}}),
        c.arch->allocate(mask, tp), c.arch->name() + " post-spurious");
  }
}

TEST(ApplyWords, DegenerateMasksMatchAllocate) {
  const int n = 144, g = 4;
  for (const int tp : {32, 128}) {
    for (auto& c : baseline_cases(n, g, tp)) {
      fault::PackedMask mask(n);
      c.allocator->apply_words(mask, {});
      // Whole words down at once (the worst-case delta density), then the
      // whole cluster, then everything back up word by word.
      for (int w = 0; w < mask.word_count(); ++w) {
        const std::uint64_t bits = mask.valid_mask(w);
        mask.apply_xor(w, bits);
        expect_same_aggregates(c.allocator->apply_words(mask, {{w, bits}}),
                               c.arch->allocate(mask, tp),
                               c.arch->name() + " word-down " +
                                   std::to_string(w));
      }
      for (int w = mask.word_count() - 1; w >= 0; --w) {
        const std::uint64_t bits = mask.valid_mask(w);
        mask.apply_xor(w, bits);
        expect_same_aggregates(c.allocator->apply_words(mask, {{w, bits}}),
                               c.arch->allocate(mask, tp),
                               c.arch->name() + " word-up " +
                                   std::to_string(w));
      }
    }
  }
}

// --- end-to-end: fast replay vs serial oracle -----------------------------

TEST(IncrementalReplay, BitIdenticalToSerialOracleAcrossArchitectures) {
  // 144 nodes x 4 GPUs = 576 GPUs: the smallest cluster every paper
  // architecture (incl. NVL-576) accepts. Every trace model the fault
  // benches replay (--trace-model): two Poisson seeds, physics degradation,
  // and degradation + correlated storms.
  const int nodes = 144;
  std::vector<std::pair<std::string, fault::FaultTrace>> traces;
  for (const std::uint64_t seed : {1ull, 42ull})
    traces.emplace_back("poisson seed=" + std::to_string(seed),
                        gen_trace(nodes, 60.0, seed));
  for (const auto model : {fault::TraceModel::kPhysics,
                           fault::TraceModel::kStorm})
    traces.emplace_back(fault::trace_model_name(model),
                        physics_trace(model, nodes, 60.0));
  auto archs = make_paper_architectures(nodes, 4);
  archs.push_back(std::make_unique<KHopRing>(nodes, 4, 2, /*ring=*/false));
  for (const auto& [label, trace] : traces) {
    for (const auto& arch : archs) {
      // 128 exercises TPUv4's pooled regime and NVL-36/72 whole-island
      // waste through the full replay stack, not just the allocator units.
      for (const int tp : {8, 32, 64, 128}) {
        const auto serial = evaluate_waste_over_trace(*arch, trace, tp, 1.0);
        for (const std::size_t window : {1ul, 16ul, 0ul}) {
          TraceReplayOptions opts;
          opts.threads = 2;
          opts.window_samples = window;
          SCOPED_TRACE(arch->name() + " tp=" + std::to_string(tp) +
                       " window=" + std::to_string(window) + " " + label);
          expect_same_result(
              serial, evaluate_waste_over_trace(*arch, trace, tp, opts));
        }
      }
    }
  }
}

TEST(IncrementalReplay, BitIdenticalOnFractionalStep) {
  const auto trace = gen_trace(96, 45.0, 5);
  const KHopRing ring(96, 4, 3);
  const auto serial = evaluate_waste_over_trace(ring, trace, 16, 0.7);
  TraceReplayOptions opts;
  opts.step_days = 0.7;
  opts.threads = 4;
  opts.window_samples = 5;
  expect_same_result(serial, evaluate_waste_over_trace(ring, trace, 16, opts));
}

}  // namespace
}  // namespace ihbd::topo
