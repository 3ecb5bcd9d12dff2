// Shared setup for the fault-resilience benches (Figs. 13-16, 18, 20-23):
// the paper's simulation cluster is 2,880 GPUs of 4-GPU nodes (the largest
// multiple of 576 below the 3,200-GPU trace), replaying the 348-day
// production trace normalized from 8-GPU to 4-GPU nodes (Appendix A).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/fault/generator.h"
#include "src/fault/physics_generator.h"
#include "src/runtime/sweep.h"
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

/// The (TP x architecture) trace-replay grid shared by Figs. 13, 15, 16 and
/// 20, run on the generic sweep engine: one trace replay per supported
/// cell, with the cells spread over a --threads wide pool (0 = one worker
/// per hardware thread).
/// Unsupported cells keep the default-constructed (empty) TraceWasteResult.
/// The replay is deterministic, so the grid is bit-identical for any thread
/// count (CI diffs them, and ctest checks the replay against the serial
/// oracle).
inline runtime::GenericSweepResult<topo::TraceWasteResult> replay_trace_grid(
    const std::vector<std::unique_ptr<topo::HbdArchitecture>>& archs,
    const fault::FaultTrace& trace, std::vector<double> tps, int threads) {
  runtime::SweepSpec spec;
  spec.trials = 1;  // replay is deterministic; the grid itself is the work
  std::vector<std::string> arch_names;
  for (const auto& arch : archs) arch_names.push_back(arch->name());
  spec.axes = {
      runtime::Axis::of_values("TP", std::move(tps)),
      runtime::Axis::of_labels("Arch", std::move(arch_names)),
  };
  return runtime::run_sweep_reduce(
      spec, topo::TraceWasteResult{},
      [&](const runtime::Scenario& s, Rng&) -> topo::TraceWasteResult {
        const int tp = static_cast<int>(s.value(0));
        const auto& arch = *archs[s.index(1)];
        if (!arch_supports_tp(arch, tp)) return {};
        return topo::evaluate_waste_over_trace(arch, trace, tp,
                                               topo::TraceReplayOptions{});
      },
      [](topo::TraceWasteResult& acc, topo::TraceWasteResult&& replay) {
        acc = std::move(replay);
      },
      threads);
}

/// True when a replay-grid cell actually ran (unsupported cells are empty).
inline bool replay_cell_supported(const topo::TraceWasteResult& cell) {
  return !cell.waste_ratio.t.empty();
}

}  // namespace ihbd::bench
