// Reproduces paper Fig. 13 (TP-16/TP-32) and Fig. 21 (TP-8..TP-64):
// CDF of the GPU waste ratio over the production fault trace, 4-GPU nodes,
// per HBD architecture. Headline (§1): InfiniteHBD TP-32 waste 0.53% vs
// NVL-72 10.04% and TPUv4 7.56%.
//
// Runs on the generic sweep engine: each (TP, arch) cell replays the trace
// in one pass and carries a full TraceWasteResult. The cells run in
// parallel on one pool, and the tables stay bit-identical for any
// --threads value.
#include "bench/bench_util.h"
#include "bench/fault_bench_common.h"

using namespace ihbd;

int main(int argc, char** argv) {
  const auto opt = bench::parse_args(argc, argv);
  bench::banner("Figures 13 & 21: GPU waste ratio CDF over production trace");

  const auto trace = bench::make_sim_trace(opt.quick, opt.trace_model);
  const auto archs = bench::make_archs();

  const auto grid =
      bench::replay_trace_grid(archs, trace, {8, 16, 32, 64}, opt.threads,
                               /*keep_samples=*/true);

  for (std::size_t t = 0; t < grid.spec.axes[0].size(); ++t) {
    const int tp = static_cast<int>(grid.spec.axes[0].values[t]);
    Table table("TP-" + std::to_string(tp) +
                ": waste-ratio distribution over the trace");
    table.set_header({"Architecture", "mean", "p50", "p90", "p99", "max"});
    for (std::size_t a = 0; a < archs.size(); ++a) {
      const auto& cell = grid.cell({t, a});
      if (!bench::replay_cell_supported(cell)) continue;
      const Summary& s = cell.waste_summary;
      table.add_row({archs[a]->name(), Table::pct(s.mean), Table::pct(s.p50),
                     Table::pct(s.p90), Table::pct(s.p99),
                     Table::pct(s.max)});
    }
    bench::emit(opt, "fig13_waste_cdf_tp" + std::to_string(tp), table);
  }

  std::puts("Paper anchors (TP-32): InfiniteHBD 0.53%, TPUv4 7.56%, "
            "NVL-72 10.04%.");
  bench::finish(opt);
  return 0;
}
