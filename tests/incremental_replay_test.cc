// Event-driven incremental replay (src/fault/trace.h word-delta timelines +
// src/topo/incremental.h): the exact and grid timelines against faulty_at()
// (zero-length events, same-day up/down, overlapping intervals, slice
// boundaries, every trace model), the grid timeline against the exact one
// folded onto the grid, the KHopRing and island allocators' apply_words
// against allocate(), and the randomized end-to-end property that the fast
// replay is bit-identical to the serial evaluate_waste_over_trace oracle
// across architectures, TP sizes and trace models.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
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
  const auto& edges = *trace.transition_timeline();
  ASSERT_EQ(edges.size(), trace.events().size() * 2);
  for (std::size_t i = 1; i < edges.size(); ++i)
    EXPECT_LE(edges[i - 1].day, edges[i].day);
  std::size_t downs = 0;
  for (const auto& e : edges) downs += e.down ? 1 : 0;
  EXPECT_EQ(downs, trace.events().size());
}

// --- timelines against faulty_at() ----------------------------------------

/// The mask a timeline gives at `day`: every group with days[g] <= day
/// XORed into an empty mask.
fault::PackedMask mask_through(const fault::WordDeltaTimeline& words,
                               int nodes, double day) {
  fault::PackedMask mask(nodes);
  for (std::size_t g = 0; g < words.days.size() && words.days[g] <= day; ++g)
    for (int i = words.offsets[g]; i < words.offsets[g + 1]; ++i)
      mask.apply_xor(words.deltas[static_cast<std::size_t>(i)].word,
                     words.deltas[static_cast<std::size_t>(i)].xor_bits);
  return mask;
}

/// The nodes whose bit group `g` flips, ascending.
std::vector<int> flipped_nodes(const fault::WordDeltaTimeline& words,
                               std::size_t g) {
  std::vector<int> nodes;
  for (int i = words.offsets[g]; i < words.offsets[g + 1]; ++i) {
    const fault::WordDelta& d = words.deltas[static_cast<std::size_t>(i)];
    fault::for_each_set_bit(d.xor_bits, d.word,
                            [&](int x) { nodes.push_back(x); });
  }
  return nodes;
}

/// Days ascending and unique, one offset per group plus one, and within
/// each group word indices strictly ascending with nonzero XOR bits.
void expect_well_formed(const fault::WordDeltaTimeline& words) {
  ASSERT_EQ(words.offsets.size(), words.days.size() + 1);
  EXPECT_EQ(words.offsets.front(), 0);
  EXPECT_EQ(static_cast<std::size_t>(words.offsets.back()),
            words.deltas.size());
  for (std::size_t g = 0; g < words.days.size(); ++g) {
    if (g > 0) EXPECT_LT(words.days[g - 1], words.days[g]);
    EXPECT_LT(words.offsets[g], words.offsets[g + 1]) << "empty group " << g;
    int prev_word = -1;
    for (int i = words.offsets[g]; i < words.offsets[g + 1]; ++i) {
      const fault::WordDelta& d = words.deltas[static_cast<std::size_t>(i)];
      EXPECT_GT(d.word, prev_word) << "group " << g;
      EXPECT_NE(d.xor_bits, 0u) << "group " << g;
      prev_word = d.word;
    }
  }
}

TEST(WordDeltaTimeline, ExactTimelineMatchesFaultyAtOnGeneratedTrace) {
  const auto trace = gen_trace(96, 45.0, 11);
  const fault::WordDeltaTimeline& words = *trace.word_delta_timeline();
  expect_well_formed(words);
  for (const double day : words.days)
    EXPECT_EQ(mask_through(words, 96, day), trace.faulty_at(day))
        << "day " << day;
  for (const double day : trace.sample_days(0.25))
    EXPECT_EQ(mask_through(words, 96, day), trace.faulty_at(day))
        << "day " << day;
}

TEST(WordDeltaTimeline, ZeroLengthAndSameDayAndOverlappingEvents) {
  // node 0: zero-length event (never faulty: start <= d < end is empty)
  // node 1: overlapping intervals [1,3) and [2,5) (faulty through day 4)
  // node 2: back-to-back [1,2) + [2,4): repair and re-fault on day 2 — the
  //         bit never clears, so day 2 must report no flip for node 2
  // node 3: plain [0,2)
  const fault::FaultTrace trace(
      5, 6.0,
      {{0, 2.0, 2.0}, {1, 1.0, 3.0}, {1, 2.0, 5.0}, {2, 1.0, 2.0},
       {2, 2.0, 4.0}, {3, 0.0, 2.0}});
  const fault::WordDeltaTimeline& words = *trace.word_delta_timeline();
  expect_well_formed(words);
  // Day 2: node 0's zero-length event cancels itself, node 1 stays down
  // (second interval active), node 2's up+down cancel, node 3 comes up.
  // Day 3 has no net change (node 1 still overlapped), so no group.
  EXPECT_EQ(words.days, (std::vector<double>{0.0, 1.0, 2.0, 4.0, 5.0}));
  const std::vector<std::vector<int>> flips{{3}, {1, 2}, {3}, {2}, {1}};
  for (std::size_t g = 0; g < flips.size() && g < words.days.size(); ++g)
    EXPECT_EQ(flipped_nodes(words, g), flips[g]) << "day " << words.days[g];
  const std::vector<bool> day2{false, true, true, false, false};
  EXPECT_EQ(mask_through(words, 5, 2.0), fault::PackedMask(day2));
  for (const double day : {0.0, 1.0, 2.0, 3.0, 4.0, 5.0})
    EXPECT_EQ(mask_through(words, 5, day), trace.faulty_at(day))
        << "day " << day;
  EXPECT_EQ(mask_through(words, 5, 5.0).popcount(), 0);
}

TEST(WordDeltaTimeline, SliceBoundariesMatchTheFullTrace) {
  const auto trace = gen_trace(64, 40.0, 3);
  const double lo = 12.0, hi = 23.0;
  const auto sliced = trace.slice(lo, hi);
  const fault::WordDeltaTimeline& words = *sliced.word_delta_timeline();
  expect_well_formed(words);
  for (double day = lo; day <= hi; day += 0.5)
    EXPECT_EQ(mask_through(words, 64, day), trace.faulty_at(day))
        << "day " << day;
  for (const double day : words.days)
    if (day >= lo && day <= hi)
      EXPECT_EQ(mask_through(words, 64, day), trace.faulty_at(day))
          << "day " << day;
}

TEST(WordDeltaTimeline, GridTimelineMatchesFaultyAtOnTheGrid) {
  // Every trace model the fault benches replay (--trace-model).
  std::vector<std::pair<std::string, fault::FaultTrace>> traces;
  traces.emplace_back("poisson", gen_trace(96, 45.0, 11));
  for (const auto model : {fault::TraceModel::kPhysics,
                           fault::TraceModel::kStorm})
    traces.emplace_back(fault::trace_model_name(model),
                        physics_trace(model, 144, 60.0));
  for (const double step : {1.0, 0.25, 0.7}) {
    for (const auto& [label, trace] : traces) {
      SCOPED_TRACE(label + " step " + std::to_string(step));
      const fault::WordDeltaTimeline& words =
          *trace.word_delta_timeline(step);
      expect_well_formed(words);
      const auto days = trace.sample_days(step);
      // Every group is stamped with a sample day.
      for (const double day : words.days)
        EXPECT_TRUE(std::binary_search(days.begin(), days.end(), day))
            << "group day " << day;
      // Walk the grid applying at most one group per sample, as the replay
      // does.
      fault::PackedMask mask(trace.node_count());
      std::size_t g = 0;
      for (const double day : days) {
        if (g < words.days.size() && words.days[g] == day) {
          for (int i = words.offsets[g]; i < words.offsets[g + 1]; ++i)
            mask.apply_xor(words.deltas[static_cast<std::size_t>(i)].word,
                           words.deltas[static_cast<std::size_t>(i)].xor_bits);
          ++g;
        }
        EXPECT_EQ(mask, trace.faulty_at(day)) << "day " << day;
      }
      EXPECT_EQ(g, words.days.size());
    }
  }
}

// --- grid word-delta timeline --------------------------------------------

/// The reference grid timeline: the exact word_delta_timeline() groups with
/// days in (grid[k-1], grid[k]] XORed into one group per sample day, zero
/// words and empty days dropped, groups past the last sample left out.
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

/// 1-3 flips that keep a sparse mask sparse: each brings a faulty node (or
/// pair) back up or takes a random one down with even odds, so the fault
/// ratio random-walks around its start instead of drifting up.
std::vector<int> sparse_flip_batch(const fault::PackedMask& mask, bool pairs,
                                   Rng& rng) {
  const int n = mask.size();
  std::vector<int> nodes;
  const int batch = 1 + static_cast<int>(rng.uniform_index(3));
  for (int b = 0; b < batch; ++b) {
    int x = static_cast<int>(rng.uniform_index(n));
    if (rng.bernoulli(0.5)) {  // the next faulty node from x, wrapping
      const int f = mask.find_first_from(x);
      x = f >= 0 ? f : std::max(mask.find_first_from(0), 0);
    }
    if (pairs) {
      nodes.push_back(x & ~1);
      nodes.push_back(x | 1);
    } else {
      nodes.push_back(x);
    }
  }
  return nodes;
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
    // split popcounts and wrap arcs cross word boundaries. 4226 nodes are
    // 66 key words plus a 2-bit tail, so the key summary spans two words;
    // at a 1% fault ratio the cut keys are sparse and the key scans cross
    // summary words and wrap round the ring.
    for (const int n : {48, 130, 4226}) {
      const bool sparse = n > 4096;
      for (const int k : {1, 2, 3}) {
        if (sparse && k != 2) continue;
        for (const int m : {2, 4, 8}) {
          // Pair-shaped flips only for K=2, the replay workload's shape.
          for (const bool pairs : {false, true}) {
            if (pairs && k != 2) continue;
            const int g = 4;
            const KHopRing ring(n, g, k, ring_variant);
            KHopRingIncrementalAllocator inc(ring, m * g);
            // Start from a random mask, then walk 400 random flip batches.
            const double ratio = sparse ? 0.01 : 0.2;
            fault::PackedMask mask = pairs ? random_pair_mask(n, ratio, rng)
                                           : random_mask(n, ratio, rng);
            inc.apply_words(mask, {});
            for (int step = 0; step < 400; ++step) {
              const auto deltas = flip_nodes(
                  mask, sparse  ? sparse_flip_batch(mask, pairs, rng)
                        : pairs ? random_pair_batch(n, rng)
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
  for (int c = 0; c < 4; ++c)
    EXPECT_GT(obs::counter(kCases[c]).value(), case_before[c]) << kCases[c];
}

TEST(KHopRingIncremental, ExtremeMasksMatchAllocate) {
  const int g = 4, tp = 16;
  // 4226 nodes: the key summary spans two words.
  for (const int n : {24, 4226}) {
    for (const bool ring_variant : {true, false}) {
      const KHopRing ring(n, g, 2, ring_variant);
      KHopRingIncrementalAllocator inc(ring, tp);
      fault::PackedMask mask(n);
      inc.apply_words(mask, {});  // all healthy
      const std::string label = (ring_variant ? "ring" : "line") +
                                std::string(" n=") + std::to_string(n);
      // Take every node down one by one, then bring them all back.
      for (int x = 0; x < n; ++x) {
        const auto& got = inc.apply_words(mask, flip_nodes(mask, {x}));
        expect_same_aggregates(got, ring.allocate(mask, tp),
                               label + " down x=" + std::to_string(x));
      }
      for (int x = n - 1; x >= 0; --x) {
        const auto& got = inc.apply_words(mask, flip_nodes(mask, {x}));
        expect_same_aggregates(got, ring.allocate(mask, tp),
                               label + " up x=" + std::to_string(x));
      }
    }
  }
}

// --- island allocator vs allocate() ---------------------------------------

/// One baseline replay case: an architecture, the allocator
/// make_incremental_allocator hands it, and the TP size both run at.
struct BaselineCase {
  std::unique_ptr<HbdArchitecture> arch;
  std::unique_ptr<IncrementalAllocator> allocator;
  int tp = 0;
};

/// The island-decomposed baselines on a 144 x 4 cluster (the smallest every
/// §6.1 baseline accepts, incl. NVL-576) at TP `tp`, plus fixed-TP cases
/// for the island rules' edges whatever `tp` is:
///   * SiP-Ring on 141 nodes, which no group of m >= 2 nodes tiles, so the
///     last ring is a short remainder island;
///   * NVL-36 at TP 128 (larger than an island) and at TP 640, SiP-Ring at
///     TP 640 (larger than the whole cluster);
///   * TPUv4 at TP 128, the pooled rule.
std::vector<BaselineCase> baseline_cases(int tp) {
  const int n = 144, g = 4;
  std::vector<BaselineCase> cases;
  const auto add = [&](std::unique_ptr<HbdArchitecture> arch, int case_tp) {
    auto allocator = make_incremental_allocator(*arch, case_tp);
    cases.push_back({std::move(arch), std::move(allocator), case_tp});
  };
  add(std::make_unique<BigSwitch>(n, g), tp);
  for (const int hbd : {36, 72, 576})
    add(std::make_unique<NvlSwitch>(n, g, hbd), tp);
  add(std::make_unique<TpuV4>(n, g), tp);
  add(std::make_unique<SipRing>(n, g), tp);
  add(std::make_unique<SipRing>(141, g), tp);
  add(std::make_unique<NvlSwitch>(n, g, 36), 128);
  add(std::make_unique<NvlSwitch>(n, g, 36), 640);
  add(std::make_unique<SipRing>(n, g), 640);
  add(std::make_unique<TpuV4>(n, g), 128);
  return cases;
}

/// "<arch> n=<nodes> tp=<tp>" for failure messages.
std::string label(const BaselineCase& c) {
  return c.arch->name() + " n=" + std::to_string(c.arch->node_count()) +
         " tp=" + std::to_string(c.tp);
}

TEST(BaselineIncremental, RandomFlipSequencesMatchAllocate) {
  Rng rng(4321);
  // TP sweep covers every regime: in-island fragmentation (8, 64),
  // TPUv4's pooled clean-cube regime and NVL-36/72 whole-island waste
  // (128), and m larger than the whole cluster (640).
  for (const int tp : {8, 64, 128, 640}) {
    for (auto& c : baseline_cases(tp)) {
      const int n = c.arch->node_count();
      fault::PackedMask mask = random_mask(n, 0.15, rng);
      c.allocator->apply_words(mask, {});
      for (int step = 0; step < 400; ++step) {
        // Double flips of one node stay in the deltas: the allocator must
        // tolerate spurious (net-zero) entries.
        const auto deltas = flip_nodes(mask, random_flip_batch(n, rng));
        const auto& got = c.allocator->apply_words(mask, deltas);
        const auto want = c.arch->allocate(mask, c.tp);
        expect_same_aggregates(got, want,
                               label(c) + " step " + std::to_string(step));
      }
    }
  }
}

TEST(BaselineIncremental, DegenerateMasksMatchAllocate) {
  for (const int tp : {32, 128}) {
    for (auto& c : baseline_cases(tp)) {
      const int n = c.arch->node_count();
      fault::PackedMask mask(n);
      // All healthy, then take one island (the first 18 nodes — one NVL-72
      // island, more than one TPUv4 cube span) fully down node by node,
      // then the whole cluster down, then everything back up.
      expect_same_aggregates(c.allocator->apply_words(mask, {}),
                             c.arch->allocate(mask, c.tp),
                             label(c) + " all-healthy");
      for (int x = 0; x < n; ++x) {
        const auto deltas = flip_nodes(mask, {x});
        expect_same_aggregates(c.allocator->apply_words(mask, deltas),
                               c.arch->allocate(mask, c.tp),
                               label(c) + " down x=" + std::to_string(x));
      }
      for (int x = n - 1; x >= 0; --x) {
        const auto deltas = flip_nodes(mask, {x});
        expect_same_aggregates(c.allocator->apply_words(mask, deltas),
                               c.arch->allocate(mask, c.tp),
                               label(c) + " up x=" + std::to_string(x));
      }
    }
  }
}

TEST(BaselineIncremental, InitializesFromDegenerateFirstMask) {
  // First apply_words() seeds wholesale from the mask: start from
  // all-faulty, from one NVL-36 island (9 nodes) fully down, and from one
  // fault every 9 nodes (every island of every baseline faulted, incl.
  // every TPUv4 cube) instead of from all-healthy.
  const char* const kMasks[] = {"all-faulty", "island-down", "every-9th"};
  for (int kind = 0; kind < 3; ++kind) {
    for (auto& c : baseline_cases(32)) {
      const int n = c.arch->node_count();
      fault::PackedMask mask(n);
      for (int x = 0; x < n; ++x)
        mask.set(x, kind == 0 || (kind == 1 && x < 9) ||
                        (kind == 2 && x % 9 == 0));
      expect_same_aggregates(c.allocator->apply_words(mask, {}),
                             c.arch->allocate(mask, c.tp),
                             label(c) + " " + kMasks[kind]);
      // One repair out of the degenerate state.
      const auto deltas = flip_nodes(mask, {0});
      expect_same_aggregates(c.allocator->apply_words(mask, deltas),
                             c.arch->allocate(mask, c.tp),
                             label(c) + " " + kMasks[kind] + " first repair");
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
  // Every allocator the dispatch hands out (KHop arc lengths, the island
  // allocator's modulo and pooled rules): word deltas in,
  // aggregates bit-identical to a from-scratch allocate().
  Rng rng(9999);
  std::vector<BaselineCase> cases;
  for (const int tp : {8, 64, 128}) {
    for (auto& c : baseline_cases(tp)) cases.push_back(std::move(c));
    auto ring = std::make_unique<KHopRing>(144, 4, 2);
    auto ring_alloc = std::make_unique<KHopRingIncrementalAllocator>(*ring, tp);
    cases.push_back({std::move(ring), std::move(ring_alloc), tp});
  }
  for (auto& c : cases) {
    const int n = c.arch->node_count();
    fault::PackedMask mask(n);
    for (int i = 0; i < n; ++i) mask.set(i, rng.bernoulli(0.15));
    c.allocator->apply_words(mask, {});
    for (int step = 0; step < 200; ++step) {
      const int batch = 1 + static_cast<int>(rng.uniform_index(3));
      const auto deltas = random_word_batch(mask, batch, rng);
      const auto& got = c.allocator->apply_words(mask, deltas);
      const auto want = c.arch->allocate(mask, c.tp);
      expect_same_aggregates(got, want,
                             label(c) + " step " + std::to_string(step));
    }
  }
}

TEST(ApplyWords, ToleratesSpuriousDeltas) {
  // A delta whose word already matches the mask (net-zero change) must be
  // ignored.
  for (auto& c : baseline_cases(32)) {
    fault::PackedMask mask(c.arch->node_count());
    for (int x = 0; x < 9; ++x) mask.set(x, true);
    c.allocator->apply_words(mask, {});
    // Claim every word changed; none did.
    std::vector<fault::WordDelta> spurious;
    for (int w = 0; w < mask.word_count(); ++w)
      spurious.push_back({w, mask.valid_mask(w)});
    expect_same_aggregates(c.allocator->apply_words(mask, spurious),
                           c.arch->allocate(mask, c.tp),
                           label(c) + " spurious");
    // And a real change still lands after the spurious round.
    const auto deltas = flip_nodes(mask, {100});
    expect_same_aggregates(c.allocator->apply_words(mask, deltas),
                           c.arch->allocate(mask, c.tp),
                           label(c) + " post-spurious");
  }
}

TEST(ApplyWords, DegenerateMasksMatchAllocate) {
  for (const int tp : {32, 128}) {
    for (auto& c : baseline_cases(tp)) {
      fault::PackedMask mask(c.arch->node_count());
      c.allocator->apply_words(mask, {});
      // Whole words down at once (the worst-case delta density), then the
      // whole cluster, then everything back up word by word.
      const auto flip_word = [&](int w, const std::string& what) {
        const fault::WordDelta d{w, mask.valid_mask(w)};
        mask.apply_xor(d.word, d.xor_bits);
        expect_same_aggregates(c.allocator->apply_words(mask, {&d, 1}),
                               c.arch->allocate(mask, c.tp),
                               label(c) + what + std::to_string(w));
      };
      for (int w = 0; w < mask.word_count(); ++w) flip_word(w, " word-down ");
      for (int w = mask.word_count() - 1; w >= 0; --w)
        flip_word(w, " word-up ");
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
        SCOPED_TRACE(arch->name() + " tp=" + std::to_string(tp) + " " +
                     label);
        expect_same_result(
            evaluate_waste_over_trace(*arch, trace, tp, 1.0),
            evaluate_waste_over_trace(*arch, trace, tp, TraceReplayOptions{}));
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
  expect_same_result(serial, evaluate_waste_over_trace(ring, trace, 16, opts));
}

}  // namespace
}  // namespace ihbd::topo
