// Micro-benchmark for the two trace-replay paths (see src/topo/waste.h):
// the serial oracle vs the one-pass incremental packed replay (PackedMask +
// per-word XOR deltas into an IncrementalAllocator), on the 348-day
// production-calibrated sim trace (720 4-GPU nodes, same cluster as Figs.
// 13/15/16/20). Covers the K-Hop Ring and the baseline architectures'
// per-island allocators. Reports replayed samples per second per path; CI
// runs it to track the speedups. BM_grid_timeline_build times the serial
// step every replay grid starts with: the hourly grid word-delta timeline
// of a 23,040-node trace. Built on the vendored bench/microbench.h harness.
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <vector>

#include "bench/fault_bench_common.h"
#include "bench/microbench.h"
#include "src/common/rng.h"
#include "src/fault/generator.h"
#include "src/fault/transitions.h"
#include "src/topo/baselines.h"
#include "src/topo/incremental.h"
#include "src/topo/khop_ring.h"
#include "src/topo/waste.h"

using namespace ihbd;

namespace {

const fault::FaultTrace& sim_trace() {
  static const fault::FaultTrace trace = bench::make_sim_trace();
  return trace;
}

const topo::KHopRing& khop_ring() {
  static const topo::KHopRing ring(bench::kNodes4, bench::kGpusPerNode, 2);
  return ring;
}

/// The replay runs inline, so the numbers are the per-sample cost.
topo::TraceReplayOptions replay_options(double step_days = 1.0) {
  topo::TraceReplayOptions opts;
  opts.step_days = step_days;
  return opts;
}

/// Shared measured loop: `iteration` does one replay and returns how many
/// samples it covered; reports samples/second. Every path reports through
/// this one wrapper so the numbers stay comparable.
template <typename Iteration>
void run_samples_bench(benchmark::State& state, Iteration&& iteration) {
  std::size_t samples = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) samples += iteration();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (secs > 0.0)
    state.counters["samples/s"] = static_cast<double>(samples) / secs;
}

/// run_samples_bench for the two evaluate_waste_over_trace paths.
template <typename Replay>
void run_replay_bench(benchmark::State& state, Replay&& replay) {
  run_samples_bench(state, [&] {
    const topo::TraceWasteResult result = replay();
    benchmark::DoNotOptimize(result);
    return result.waste_ratio.size();
  });
}

}  // namespace

static void BM_replay_serial(benchmark::State& state) {
  const int tp = static_cast<int>(state.range(0));
  run_replay_bench(state, [&] {
    return topo::evaluate_waste_over_trace(khop_ring(), sim_trace(), tp, 1.0);
  });
}
BENCHMARK(BM_replay_serial)->Arg(8)->Arg(32);

// The fast path: packed masks + per-word XOR deltas end-to-end
// (cursor.advance_to_words into apply_words, popcount healthy counts).
static void BM_replay_packed(benchmark::State& state) {
  const int tp = static_cast<int>(state.range(0));
  run_replay_bench(state, [&] {
    return topo::evaluate_waste_over_trace(khop_ring(), sim_trace(), tp,
                                           replay_options());
  });
}
BENCHMARK(BM_replay_packed)->Arg(8)->Arg(32);

// --- baseline architectures: per-island allocators vs the serial oracle --
//
// Arg encodes (architecture, TP) over the paper baselines' per-island
// incremental allocators. TPUv4 appears in both regimes (per-cube
// fragmentation at TP-32, pooled clean-cube assembly at TP-128).

namespace {

struct BaselineCase {
  const char* label;
  int tp;
};
constexpr BaselineCase kBaselineCases[] = {
    {"NVL-72", 32}, {"TPUv4", 32}, {"TPUv4", 128},
    {"SiP-Ring", 32}, {"Big-Switch", 32},
};

const topo::HbdArchitecture& baseline_arch(int case_index) {
  static const auto archs = bench::make_archs();
  const char* want = kBaselineCases[case_index].label;
  for (const auto& arch : archs)
    if (arch->name() == want) return *arch;
  std::abort();  // unreachable: every case names a paper architecture
}

}  // namespace

static void BM_baseline_serial(benchmark::State& state) {
  const auto c = kBaselineCases[state.range(0)];
  const topo::HbdArchitecture& arch =
      baseline_arch(static_cast<int>(state.range(0)));
  run_replay_bench(state, [&] {
    return topo::evaluate_waste_over_trace(arch, sim_trace(), c.tp, 1.0);
  });
}
BENCHMARK(BM_baseline_serial)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// The allocator driven directly by a grid-aligned cursor, exactly as the
// production replay in src/topo/waste.cc does.
static void BM_baseline_packed(benchmark::State& state) {
  const auto c = kBaselineCases[state.range(0)];
  const topo::HbdArchitecture& arch =
      baseline_arch(static_cast<int>(state.range(0)));
  const std::vector<double> days = sim_trace().sample_days(1.0);
  run_samples_bench(state, [&] {
    fault::FaultMaskCursor cursor(sim_trace(), 1.0);
    const auto allocator = topo::make_incremental_allocator(arch, c.tp);
    double sink = 0.0;
    for (const double day : days) {
      const auto& deltas = cursor.advance_to_words(day);
      sink +=
          allocator->apply_words(cursor.mask(), deltas).waste_ratio();
    }
    benchmark::DoNotOptimize(sink);
    return days.size();
  });
}
BENCHMARK(BM_baseline_packed)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// Quarter-day sampling: the fast path's home turf — the transition count
// is fixed by the trace, so 4x the samples cost the serial oracle 4x but
// the fast path almost nothing (most samples see no flips).
static void BM_replay_serial_quarter_day(benchmark::State& state) {
  const int tp = static_cast<int>(state.range(0));
  run_replay_bench(state, [&] {
    return topo::evaluate_waste_over_trace(khop_ring(), sim_trace(), tp,
                                           0.25);
  });
}
BENCHMARK(BM_replay_serial_quarter_day)->Arg(32);

static void BM_replay_packed_quarter_day(benchmark::State& state) {
  const int tp = static_cast<int>(state.range(0));
  run_replay_bench(state, [&] {
    return topo::evaluate_waste_over_trace(khop_ring(), sim_trace(), tp,
                                           replay_options(0.25));
  });
}
BENCHMARK(BM_replay_packed_quarter_day)->Arg(32);

// The grid timeline build that a replay grid's first cell waits on, at
// perfbench replay_mc scale: a 348-day Poisson trace over 11,520 8-GPU
// nodes split onto 23,040 4-GPU nodes, folded onto the hourly grid. Each
// iteration builds on a fresh copy (empty timeline cache); samples/s counts
// the grid samples folded per second of build time only, while ns_per_iter
// also pays the copy.
static void BM_grid_timeline_build(benchmark::State& state) {
  static const fault::FaultTrace trace = [] {
    fault::TraceGenConfig cfg;
    cfg.node_count = 11520;
    Rng split(2);
    return fault::generate_trace(cfg).split_to_half_nodes(split);
  }();
  constexpr double kStepDays = 1.0 / 24.0;
  const std::size_t samples = trace.sample_days(kStepDays).size();
  double build_s = 0.0;
  std::size_t builds = 0;
  for (auto _ : state) {
    const fault::FaultTrace fresh(trace.node_count(), trace.duration_days(),
                                  trace.events());
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(fresh.word_delta_timeline(kStepDays));
    build_s += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    ++builds;
  }
  if (build_s > 0.0)
    state.counters["samples/s"] =
        static_cast<double>(samples * builds) / build_s;
}
BENCHMARK(BM_grid_timeline_build);

BENCHMARK_MAIN();
