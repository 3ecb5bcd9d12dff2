// Shared setup for the fault-resilience benches (Figs. 13-16, 18, 20-23):
// the paper's simulation cluster is 2,880 GPUs of 4-GPU nodes (the largest
// multiple of 576 below the 3,200-GPU trace), replaying the 348-day
// production trace normalized from 8-GPU to 4-GPU nodes (Appendix A).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/fault/generator.h"
#include "src/fault/physics_generator.h"
#include "src/runtime/sweep.h"
#include "src/runtime/thread_pool.h"
#include "src/topo/baselines.h"
#include "src/topo/waste.h"

namespace ihbd::bench {

inline constexpr int kNodes4 = 720;   // 2,880 GPUs at 4 GPUs/node
inline constexpr int kGpusPerNode = 4;
inline constexpr int kClusterGpus = kNodes4 * kGpusPerNode;

/// The 348-day production-calibrated trace, normalized to 4-GPU nodes and
/// linearly remapped onto the 720-node simulation cluster. `model` picks
/// the trace family (--trace-model): memoryless Poisson draws, physics
/// degradation, or degradation + correlated storms — all calibrated to the
/// same Appendix A statistics, all deterministic per seed.
inline fault::FaultTrace make_sim_trace(
    bool quick = false,
    fault::TraceModel model = fault::TraceModel::kPoisson) {
  const auto trace8 = [&] {  // 375 x 8-GPU nodes, 348 days (60 in quick)
    switch (model) {
      case fault::TraceModel::kPhysics:
      case fault::TraceModel::kStorm: {
        fault::PhysicsTraceConfig cfg = model == fault::TraceModel::kStorm
                                            ? fault::storm_trace_defaults()
                                            : fault::physics_trace_defaults();
        if (quick) cfg.duration_days = 60.0;
        return fault::generate_physics_trace(cfg);
      }
      case fault::TraceModel::kPoisson:
        break;
    }
    fault::TraceGenConfig cfg;
    if (quick) cfg.duration_days = 60.0;
    return fault::generate_trace(cfg);
  }();
  Rng rng(91);
  return trace8.split_to_half_nodes(rng).remap_nodes(kNodes4);
}

/// Architecture set of §6.1 on the simulation cluster.
inline std::vector<std::unique_ptr<topo::HbdArchitecture>> make_archs() {
  return topo::make_paper_architectures(kNodes4, kGpusPerNode);
}

/// NVL-36 cannot host TP-64 at all; the paper omits it from those plots.
inline bool arch_supports_tp(const topo::HbdArchitecture& arch, int tp) {
  if (arch.name() == "NVL-36" && tp > 36) return false;
  return true;
}

/// Window layout of a nested cell-grid replay: when the grid alone
/// saturates the pool there are no idle workers for a cell's window
/// fan-out to recruit, and the single-window layout (0) is the cheapest
/// replay — one cursor/allocator alive over the whole trace per cell. With
/// fewer cells than workers, windows are exactly what idle workers steal. Output is bit-identical for any window size, so this is
/// purely a perf choice.
inline std::size_t nested_window_samples(std::size_t cell_count,
                                         const runtime::ThreadPool& pool) {
  return cell_count >= static_cast<std::size_t>(pool.size())
             ? 0
             : topo::TraceReplayOptions{}.window_samples;
}

/// Sweep-identity salt for a trace: two replay grids over different traces
/// (quick 60-day vs full 348-day, different clusters) must never share a
/// shard run directory entry even though their cell grids match, so the
/// trace's shape is folded into SweepSpec::fingerprint_salt. FNV-1a over
/// node count, duration bits, and every event's (node, start, end) bits.
inline std::uint64_t trace_fingerprint(const fault::FaultTrace& trace) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto mix_f64 = [&](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(trace.node_count()));
  mix_f64(trace.duration_days());
  mix(trace.events().size());
  for (const auto& ev : trace.events()) {
    mix(static_cast<std::uint64_t>(ev.node));
    mix_f64(ev.start_day);
    mix_f64(ev.end_day);
  }
  return h;
}

/// The (TP x architecture) trace-replay grid shared by Figs. 13, 15, 16 and
/// 20, run on the generic sweep engine: one windowed trace replay per
/// supported cell. BOTH fan-out levels share one work-stealing pool
/// (--threads wide; 0 = the shared process pool): the sweep distributes
/// cells, and each cell's window fan-out recruits idle workers — so a grid
/// with fewer cells than cores no longer strands the rest of the machine.
/// Unsupported cells keep the default-constructed (empty) TraceWasteResult.
/// The replay is deterministic, so the grid is bit-identical for any thread
/// count (CI diffs them, and ctest checks the replay against the serial
/// oracle). The attached trace_waste_codec makes the grid shardable: under
/// an ambient shard::ShardContext (bench --shard-dir, ihbd-sweepd) the
/// cells spread across the fleet and the reduced grid is byte-identical to
/// a local run.
inline runtime::GenericSweepResult<topo::TraceWasteResult> replay_trace_grid(
    const std::vector<std::unique_ptr<topo::HbdArchitecture>>& archs,
    const fault::FaultTrace& trace, std::vector<double> tps, int threads,
    bool keep_samples = true) {
  runtime::SweepSpec spec;
  spec.trials = 1;  // replay is deterministic; the grid itself is the work
  spec.keep_samples = keep_samples;
  spec.fingerprint_salt = trace_fingerprint(trace);
  std::size_t supported_cells = 0;
  for (const double tp : tps)
    for (const auto& arch : archs)
      if (arch_supports_tp(*arch, static_cast<int>(tp))) ++supported_cells;
  std::vector<std::string> arch_names;
  for (const auto& arch : archs) arch_names.push_back(arch->name());
  spec.axes = {
      runtime::Axis::of_values("TP", std::move(tps)),
      runtime::Axis::of_labels("Arch", std::move(arch_names)),
  };
  const runtime::PoolRef pool(threads);
  const std::size_t window_samples =
      nested_window_samples(supported_cells, *pool);
  return runtime::run_sweep_reduce(
      spec, topo::TraceWasteResult{},
      [&](const runtime::Scenario& s, Rng&) -> topo::TraceWasteResult {
        const int tp = static_cast<int>(s.value(0));
        const auto& arch = *archs[s.index(1)];
        if (!arch_supports_tp(arch, tp)) return {};
        topo::TraceReplayOptions opts;
        opts.pool = pool.get();  // nested fan-out on the sweep's own pool
        opts.window_samples = window_samples;
        opts.keep_samples = s.spec().keep_samples;
        return topo::evaluate_waste_over_trace(arch, trace, tp, opts);
      },
      [](topo::TraceWasteResult& acc, topo::TraceWasteResult&& replay) {
        acc = std::move(replay);
      },
      /*threads=*/0, pool.get(), &topo::trace_waste_codec());
}

/// True when a replay-grid cell actually ran (unsupported cells are empty).
inline bool replay_cell_supported(const topo::TraceWasteResult& cell) {
  return !cell.waste_ratio.t.empty();
}

}  // namespace ihbd::bench
