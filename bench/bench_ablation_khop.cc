// Ablation benches for the design choices DESIGN.md calls out:
//   (1) hop reach K in {1,2,3,4}: fault resilience vs OCSTrx bundle cost;
//   (2) ring vs K-hop line topology (§4.2's trade-off);
//   (3) deployment-strategy on/off for the orchestrator (Algorithm 3).
//
// The Monte-Carlo sweeps (1) and (2) run on the runtime sweep engine: every
// (cell, trial) draws from its own RNG substream, so the tables are
// bit-identical for any --threads value. (3) is a single deterministic
// orchestration comparison and needs no trials.
#include <memory>
#include <utility>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/cost/bom.h"
#include "src/dcn/traffic.h"
#include "src/fault/trace.h"
#include "src/orch/orchestrator.h"
#include "src/runtime/sweep.h"
#include "src/topo/khop_ring.h"
#include "src/topo/waste.h"

using namespace ihbd;

int main(int argc, char** argv) {
  const auto opt = bench::parse_args(argc, argv);
  bench::banner("Ablations: K sweep, ring-vs-line, deployment strategy");
  const int trials = bench::trials_or(opt, opt.quick ? 30 : 150);

  {
    Table table("K sweep: TP-32 waste ratio on 720 4-GPU nodes (+ per-GPU "
                "interconnect cost scaled by bundle count)");
    table.set_header({"K", "waste @2%", "waste @5%", "waste @10%",
                      "OCSTrx/node", "est. cost/GPU"});
    const auto boms = cost::paper_boms();
    const double k2_cost =
        cost::bom_by_name(boms, "InfiniteHBD(K=2)").cost_per_gpu();
    const double k3_cost =
        cost::bom_by_name(boms, "InfiniteHBD(K=3)").cost_per_gpu();
    const double per_bundle = k3_cost - k2_cost;  // one extra bundle

    std::vector<std::unique_ptr<topo::KHopRing>> rings;
    for (int k : {1, 2, 3, 4})
      rings.push_back(std::make_unique<topo::KHopRing>(720, 4, k));

    runtime::SweepSpec spec;
    spec.seed = 100;
    spec.trials = trials;
    spec.keep_samples = false;  // only cell means are reported
    spec.axes = {
        runtime::Axis::of_values("K", {1, 2, 3, 4}),
        runtime::Axis::of_values("Fault ratio", {0.02, 0.05, 0.10},
                                 [](double f) { return Table::pct(f, 0); }),
    };
    const auto result = runtime::run_sweep(
        spec,
        [&](const runtime::Scenario& s, Rng& rng) {
          const auto& ring = *rings[s.index(0)];
          const auto mask =
              fault::sample_fault_mask(ring.node_count(), s.value(1), rng);
          return ring.allocate(mask, 32).waste_ratio();
        },
        opt.threads);

    for (std::size_t ki = 0; ki < rings.size(); ++ki) {
      const int k = static_cast<int>(spec.axes[0].values[ki]);
      std::vector<std::string> row{std::to_string(k)};
      for (std::size_t fi = 0; fi < spec.axes[1].size(); ++fi)
        row.push_back(Table::pct(result.cell({ki, fi}).mean()));
      row.push_back(std::to_string(8 * k));
      row.push_back(Table::fmt(k2_cost + (k - 2) * per_bundle, 0));
      table.add_row(row);
    }
    bench::emit(opt, "ablation_k_sweep", table);
  }

  {
    Table table("Ring vs K-hop line (K=2, TP-32): the wrap link's value");
    table.set_header({"Fault ratio", "Ring waste", "Line waste"});
    const topo::KHopRing ring(720, 4, 2, true);
    const topo::KHopRing line(720, 4, 2, false);

    // Common random numbers: each trial draws ONE mask and evaluates both
    // topologies on it, so the wrap-link delta is paired, not noised by
    // independent mask sets. The generic reduce carries both samples.
    struct Paired {
      runtime::Accumulator ring_waste;
      runtime::Accumulator line_waste;
    };
    runtime::SweepSpec spec;
    spec.seed = 7;
    spec.trials = trials;
    spec.axes = {
        runtime::Axis::of_values("Fault ratio", {0.0, 0.02, 0.05, 0.10},
                                 [](double f) { return Table::pct(f, 0); }),
    };
    const Paired init{runtime::Accumulator(false),
                      runtime::Accumulator(false)};
    const auto result = runtime::run_sweep_reduce(
        spec, init,
        [&](const runtime::Scenario& s, Rng& rng) {
          const auto mask =
              fault::sample_fault_mask(ring.node_count(), s.value(0), rng);
          return std::pair{ring.allocate(mask, 32).waste_ratio(),
                           line.allocate(mask, 32).waste_ratio()};
        },
        [](Paired& acc, std::pair<double, double>&& waste) {
          acc.ring_waste.add(waste.first);
          acc.line_waste.add(waste.second);
        },
        opt.threads);

    for (std::size_t fi = 0; fi < spec.axes[0].size(); ++fi)
      table.add_row({spec.axes[0].labels[fi],
                     Table::pct(result.cell({fi}).ring_waste.mean()),
                     Table::pct(result.cell({fi}).line_waste.mean())});
    bench::emit(opt, "ablation_ring_vs_line", table);
  }

  {
    Table table("Deployment strategy ablation (2048 nodes, TP-32, job 85%, "
                "faults 3%): interleaved sub-lines vs naive physical order");
    table.set_header({"Deployment", "Cross-ToR rate"});
    dcn::FatTreeConfig cfg;
    cfg.node_count = 2048;
    cfg.nodes_per_tor = 8;
    cfg.tors_per_domain = 64;
    const dcn::FatTree ft(cfg);
    Rng rng(55);
    const auto mask = fault::sample_fault_mask(2048, 0.03, rng);
    orch::JobSpec job{32, static_cast<int>(2048 * 4 * 0.85)};
    const int use = job.gpu_count / 32;

    orch::FatTreeOrchestrator orchestrator(ft, 2, 4);
    const auto deployed = orchestrator.orchestrate(mask, job);
    table.add_row({"Algorithm 3 (interleaved)",
                   Table::pct(dcn::evaluate_cross_tor(ft, deployed, 4, {}, use)
                                  .cross_tor_rate())});

    // Naive: physical order = HBD order (§4.3's "sorting nodes based on
    // deployment order" strawman). TP groups then sit inside ToRs but DP
    // partners land in different ToRs.
    std::vector<int> naive(2048);
    for (int i = 0; i < 2048; ++i) naive[i] = i;
    auto groups = orch::orchestrate_dcn_free(naive, 2, mask, 8);
    dcn::PlacementScheme placement;
    for (auto& g : groups) {
      dcn::PlacedGroup pg;
      pg.group = std::move(g);
      placement.groups.push_back(std::move(pg));
    }
    table.add_row({"Naive physical order",
                   Table::pct(dcn::evaluate_cross_tor(ft, placement, 4, {},
                                                      use)
                                  .cross_tor_rate())});
    bench::emit(opt, "ablation_deployment", table);
  }
  bench::finish(opt);
  return 0;
}
