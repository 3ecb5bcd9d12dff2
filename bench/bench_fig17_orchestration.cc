// Reproduces paper Fig. 17a-c: cross-ToR traffic rate of the HBD-DCN
// orchestration algorithm vs the greedy baseline on a Fat-Tree DCN,
// running TP-32 on InfiniteHBD:
//   (a) sensitivity to cluster size (8k-20k GPUs, job 85%, faults 5%),
//   (b) impact of job-scale ratio (70-90%, faults 5%),
//   (c) sensitivity to node fault ratio (0-8%, job 85%).
//
// All three panels run on runtime::run_sweep_reduce with a paired
// accumulator (common random numbers: each trial draws one fault mask and
// evaluates both the optimized and the greedy placement on it), so the
// tables are bit-identical across --threads values.
#include <utility>

#include "bench/bench_util.h"
#include "src/dcn/traffic.h"
#include "src/fault/trace.h"
#include "src/orch/orchestrator.h"
#include "src/runtime/sweep.h"

using namespace ihbd;

namespace {

struct Setup {
  dcn::FatTree fat_tree;
  orch::FatTreeOrchestrator orchestrator;
  explicit Setup(int nodes)
      : fat_tree(dcn::FatTreeConfig{nodes, /*nodes_per_tor=*/8,
                                    /*tors_per_domain=*/64}),
        orchestrator(fat_tree, /*k=*/2, /*gpus_per_node=*/4) {}
};

/// Paired cross-ToR rates from one fault mask.
struct Rates {
  double optimized;
  double baseline;
};

/// Per-cell fold of Rates (moments only; the figure reports means).
struct RateAcc {
  runtime::Accumulator optimized{false};
  runtime::Accumulator baseline{false};
};

/// One Monte-Carlo trial: one mask, both placements.
Rates measure(int nodes, double fault_ratio, double job_ratio, Rng& rng) {
  Setup setup(nodes);
  const auto mask = fault::sample_fault_mask(nodes, fault_ratio, rng);
  orch::JobSpec job{32, static_cast<int>(nodes * 4 * job_ratio)};
  const int use = job.gpu_count / job.tp_size_gpus;

  const auto optimized = setup.orchestrator.orchestrate(mask, job);
  const double opt =
      dcn::evaluate_cross_tor(setup.fat_tree, optimized, 4, {}, use)
          .cross_tor_rate();
  const auto baseline =
      orch::greedy_baseline(setup.fat_tree, 2, 4, mask, job, rng);
  const double base =
      dcn::evaluate_cross_tor(setup.fat_tree, baseline, 4, {}, use)
          .cross_tor_rate();
  return {opt, base};
}

/// Shared sweep driver for one panel: a single axis, paired fold.
template <typename Trial>
runtime::GenericSweepResult<RateAcc> panel(std::uint64_t seed, int trials,
                                           runtime::Axis axis, Trial&& trial,
                                           int threads) {
  runtime::SweepSpec spec;
  spec.seed = seed;
  spec.trials = trials;
  spec.keep_samples = false;
  spec.axes = {std::move(axis)};
  return runtime::run_sweep_reduce(
      spec, RateAcc{}, std::forward<Trial>(trial),
      [](RateAcc& acc, Rates&& r) {
        acc.optimized.add(r.optimized);
        acc.baseline.add(r.baseline);
      },
      threads);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_args(argc, argv);
  bench::banner("Figure 17a-c: HBD-DCN orchestration cross-ToR rate");
  const int trials = bench::trials_or(opt, opt.quick ? 2 : 5);

  {
    Table table("Fig. 17a: sensitivity to cluster size (job 85%, faults 5%)");
    table.set_header({"Cluster (GPU)", "Baseline", "Optimized"});
    const auto result = panel(
        170, trials,
        runtime::Axis::of_values("Nodes", {1024, 2048, 3072, 5120}),
        [](const runtime::Scenario& s, Rng& rng) {
          return measure(static_cast<int>(s.value(0)), 0.05, 0.85, rng);
        },
        opt.threads);
    for (std::size_t i = 0; i < result.spec.axes[0].size(); ++i) {
      const auto& c = result.cell({i});
      table.add_row(
          {std::to_string(static_cast<int>(result.spec.axes[0].values[i]) * 4),
           Table::pct(c.baseline.mean()), Table::pct(c.optimized.mean())});
    }
    bench::emit(opt, "fig17a_cluster_size", table);
  }

  {
    Table table("Fig. 17b: impact of job-scale ratio (8192 GPUs, faults 5%)");
    table.set_header({"Job scale", "Baseline", "Optimized", "Paper opt"});
    const char* paper[] = {"~0.5%", "~0.8%", "~1.1%", "1.72%"};
    const auto result = panel(
        171, trials,
        runtime::Axis::of_values("Job scale", {0.70, 0.80, 0.85, 0.90},
                                 [](double r) { return Table::pct(r, 0); }),
        [](const runtime::Scenario& s, Rng& rng) {
          return measure(2048, 0.05, s.value(0), rng);
        },
        opt.threads);
    for (std::size_t i = 0; i < result.spec.axes[0].size(); ++i) {
      const auto& c = result.cell({i});
      table.add_row({result.spec.axes[0].labels[i],
                     Table::pct(c.baseline.mean()),
                     Table::pct(c.optimized.mean()), paper[i]});
    }
    bench::emit(opt, "fig17b_job_scale", table);
  }

  {
    Table table("Fig. 17c: sensitivity to fault ratio (8192 GPUs, job 85%)");
    table.set_header({"Fault ratio", "Baseline", "Optimized"});
    const auto result = panel(
        172, trials,
        runtime::Axis::of_values("Fault ratio",
                                 {0.0, 0.01, 0.03, 0.05, 0.07, 0.08},
                                 [](double f) { return Table::pct(f, 0); }),
        [](const runtime::Scenario& s, Rng& rng) {
          return measure(2048, s.value(0), 0.85, rng);
        },
        opt.threads);
    for (std::size_t i = 0; i < result.spec.axes[0].size(); ++i) {
      const auto& c = result.cell({i});
      table.add_row({result.spec.axes[0].labels[i],
                     Table::pct(c.baseline.mean()),
                     Table::pct(c.optimized.mean())});
    }
    bench::emit(opt, "fig17c_fault_ratio", table);
  }

  std::puts("Paper: baseline ~10% throughout; optimized near-zero under 7% "
            "faults, 1.72% at 90% job scale.");
  bench::finish(opt);
  return 0;
}
