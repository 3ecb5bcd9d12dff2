// Reproduces paper Fig. 15: maximal job scale supported by the 2,880-GPU
// cluster per architecture and TP size, replaying the production trace
// (upper limit 2,880).
//
// Runs on the generic sweep engine: each (TP, arch) cell replays the trace
// in one pass and carries the usable-GPUs series the job-scale quantile is
// derived from. The cells run in parallel on one pool; bit-identical for
// any --threads value.
#include "bench/bench_util.h"
#include "bench/fault_bench_common.h"

using namespace ihbd;

int main(int argc, char** argv) {
  const auto opt = bench::parse_args(argc, argv);
  bench::banner("Figure 15: maximal job scale supported by 2,880 GPUs");

  const auto trace = bench::make_sim_trace(opt.quick, opt.trace_model);
  const auto archs = bench::make_archs();

  // keep_samples=false: only the usable-GPUs series feeds the quantile.
  const auto grid =
      bench::replay_trace_grid(archs, trace, {8, 16, 32, 64}, opt.threads,
                               /*keep_samples=*/false);

  Table table("Job scale (GPUs) supportable 99% of the trace duration");
  std::vector<std::string> header{"Architecture"};
  for (int tp : {8, 16, 32, 64}) header.push_back("TP" + std::to_string(tp));
  table.set_header(header);

  for (std::size_t a = 0; a < archs.size(); ++a) {
    std::vector<std::string> row{archs[a]->name()};
    for (std::size_t t = 0; t < grid.spec.axes[0].size(); ++t) {
      const int tp = static_cast<int>(grid.spec.axes[0].values[t]);
      const auto& cell = grid.cell({t, a});
      if (!bench::replay_cell_supported(cell)) {
        row.push_back("-");
        continue;
      }
      row.push_back(
          std::to_string(topo::max_job_scale(cell.usable_gpus, 0.99, tp)));
    }
    table.add_row(row);
  }
  table.add_row({"Upper limit", "2880", "2880", "2880", "2880"});
  bench::emit(opt, "fig15_max_job", table);
  bench::finish(opt);
  return 0;
}
