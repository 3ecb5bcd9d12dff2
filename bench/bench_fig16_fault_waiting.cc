// Reproduces paper Fig. 16 (TP-16/TP-32) and Fig. 23 (TP-8..TP-64): the
// fraction of time a job of a given scale must wait for repairs because
// usable GPUs fall below its requirement, over the production trace.
//
// Runs on the generic sweep engine via the shared replay grid: each
// (TP, arch) cell replays the trace in one pass, the cells run in parallel
// on one pool, and the tables stay bit-identical for any --threads
// value.
#include "bench/bench_util.h"
#include "bench/fault_bench_common.h"

using namespace ihbd;

int main(int argc, char** argv) {
  const auto opt = bench::parse_args(argc, argv);
  bench::banner("Figures 16 & 23: job fault-waiting rate vs job scale");

  const auto trace = bench::make_sim_trace(opt.quick, opt.trace_model);
  const auto archs = bench::make_archs();

  const auto grid =
      bench::replay_trace_grid(archs, trace, {8, 16, 32, 64}, opt.threads);

  for (std::size_t t = 0; t < grid.spec.axes[0].size(); ++t) {
    const int tp = static_cast<int>(grid.spec.axes[0].values[t]);
    Table table("TP-" + std::to_string(tp) + ": fault-waiting rate");
    std::vector<std::string> header{"Job scale (GPU)"};
    std::vector<std::size_t> supported;
    for (std::size_t a = 0; a < archs.size(); ++a) {
      if (!bench::arch_supports_tp(*archs[a], tp)) continue;
      header.push_back(archs[a]->name());
      supported.push_back(a);
    }
    table.set_header(header);

    for (int scale : {1920, 2176, 2432, 2560, 2688, 2816}) {
      std::vector<std::string> row{std::to_string(scale)};
      for (const std::size_t a : supported)
        row.push_back(Table::pct(
            topo::fault_waiting_rate(grid.cell({t, a}).usable_gpus, scale)));
      table.add_row(row);
    }
    bench::emit(opt, "fig16_fault_waiting_tp" + std::to_string(tp), table);
  }
  bench::finish(opt);
  return 0;
}
