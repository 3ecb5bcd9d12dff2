// Reproduces paper Fig. 20: GPU waste ratio over trace time (monthly
// samples printed; CSV mode additionally writes the full daily series),
// per architecture and TP size.
//
// Runs on the generic sweep engine with keep_samples=false: each (TP, arch)
// cell keeps only the replayed time series (what this figure prints), not a
// duplicate per-sample array inside the summary accumulator, bounding
// memory on fleet-scale sweeps. Cells and their windows share one
// work-stealing pool (nested parallel_for); bit-identical for any
// --threads value.
#include "bench/bench_util.h"
#include "bench/fault_bench_common.h"

using namespace ihbd;

int main(int argc, char** argv) {
  const auto opt = bench::parse_args(argc, argv);
  bench::banner("Figure 20: waste ratio over production-trace time");

  const auto trace = bench::make_sim_trace(opt.quick, opt.trace_model);
  const auto archs = bench::make_archs();

  // Representative TP pair of the paper's plot.
  const auto grid = bench::replay_trace_grid(archs, trace, {8, 32},
                                             opt.threads,
                                             /*keep_samples=*/false);

  for (std::size_t t = 0; t < grid.spec.axes[0].size(); ++t) {
    const int tp = static_cast<int>(grid.spec.axes[0].values[t]);
    Table table("TP-" + std::to_string(tp) +
                ": waste ratio time series (30-day samples)");
    std::vector<std::string> header{"Day"};
    std::vector<const TimeSeries*> series;
    for (std::size_t a = 0; a < archs.size(); ++a) {
      const auto& cell = grid.cell({t, a});
      if (!bench::replay_cell_supported(cell)) continue;
      header.push_back(archs[a]->name());
      series.push_back(&cell.waste_ratio);
    }
    table.set_header(header);
    if (!series.empty()) {
      for (std::size_t i = 0; i < series[0]->size(); i += 30) {
        std::vector<std::string> row{Table::fmt(series[0]->t[i], 0)};
        for (const auto* ts : series) row.push_back(Table::pct(ts->v[i]));
        table.add_row(row);
      }
    }
    bench::emit(opt, "fig20_waste_timeseries_tp" + std::to_string(tp), table);

    // CSV mode additionally captures the full daily-resolution series.
    if (!opt.csv_dir.empty() && !series.empty()) {
      Table daily("TP-" + std::to_string(tp) +
                  ": waste ratio time series (daily)");
      daily.set_header(header);
      for (std::size_t i = 0; i < series[0]->size(); ++i) {
        std::vector<std::string> row{Table::fmt(series[0]->t[i], 0)};
        for (const auto* ts : series) row.push_back(Table::pct(ts->v[i]));
        daily.add_row(row);
      }
      write_csv(opt.csv_dir,
                "fig20_waste_timeseries_tp" + std::to_string(tp) + "_daily",
                daily);
    }
  }
  bench::finish(opt);
  return 0;
}
