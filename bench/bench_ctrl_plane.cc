// Always-on control-plane soak bench (the daemon of src/ctrl): fleet-scale
// sweeps of the event-driven orchestration service, reporting the SLOs an
// operator would page on — p50/p99/p999 job-wait and OCS reconfiguration
// latency — plus event throughput and churn counters.
//
// Each (cell, trial) is one full daemon run: a paper-calibrated fault trace
// (--trace-model poisson|physics|storm) and a Poisson job workload are
// generated from the trial's RNG substream, then ControlPlane::run()
// consumes every event up to the horizon. Full mode's largest cell (10,240
// nodes at 75% offered load over 96 days) processes >= 1M engine events in
// a single run.
//
// The Inject axis exercises the retry/backoff path: at a 10% session-switch
// failure rate every run still completes — failed steers back off, retry,
// and eventually dead-letter, while jobs start on their last good placement
// (degraded). The degraded-mode SLO split is reported separately.
//
// Runs on runtime::run_sweep_reduce: the SLO tables are byte-identical for
// any --threads value (CI diffs them), because every histogram lives in a
// local SloHistogram merged in trial order. Wall-clock events/s goes to
// stderr only, keeping stdout deterministic.
#include <chrono>
#include <cstdint>

#include "bench/bench_util.h"
#include "src/ctrl/control_plane.h"
#include "src/ctrl/workload.h"
#include "src/fault/generator.h"
#include "src/fault/physics_generator.h"
#include "src/runtime/sweep.h"

using namespace ihbd;

namespace {

struct BenchScale {
  double duration_days;
  std::vector<double> node_counts;
};

/// Offered load -> Poisson arrival intensity. Steady-state group demand is
/// rate * mean_run * mean_groups; capacity is nodes / (t / r) groups.
double arrival_rate(const ctrl::WorkloadConfig& wl, int nodes,
                    int nodes_per_group, double utilization) {
  const double capacity_groups = static_cast<double>(nodes) / nodes_per_group;
  const double mean_groups = 0.5 * (wl.min_groups + wl.max_groups);
  return utilization * capacity_groups / (wl.mean_run_days * mean_groups);
}

fault::FaultTrace make_trial_trace(fault::TraceModel model, int nodes,
                                   double duration_days, std::uint64_t seed) {
  switch (model) {
    case fault::TraceModel::kPhysics:
    case fault::TraceModel::kStorm: {
      fault::PhysicsTraceConfig cfg = model == fault::TraceModel::kStorm
                                          ? fault::storm_trace_defaults()
                                          : fault::physics_trace_defaults();
      cfg.node_count = nodes;
      cfg.duration_days = duration_days;
      cfg.seed = seed;
      return fault::generate_physics_trace(cfg);
    }
    case fault::TraceModel::kPoisson:
      break;
  }
  fault::TraceGenConfig tg;  // paper-calibrated fault statistics
  tg.node_count = nodes;
  tg.duration_days = duration_days;
  tg.seed = seed;
  return fault::generate_trace(tg);
}

ctrl::ControlPlaneResult run_trial(int nodes, double utilization,
                                   double inject_rate, double duration_days,
                                   fault::TraceModel model, Rng& rng) {
  ctrl::ControlPlaneConfig cfg;
  cfg.node_count = nodes;
  cfg.nodes_per_tor = 4;
  cfg.tors_per_domain = 32;
  // Alignment constraints trade DCN locality against fault-degraded
  // capacity: at max_constraints() every fault expands to its whole ToR and
  // the paper trace's 2.33% mean fault ratio halves the carvable capacity;
  // at half that level the loss stays ~15%. The daemon runs the moderate
  // setting a production fleet would.
  {
    const dcn::FatTree probe(dcn::FatTreeConfig{nodes, cfg.nodes_per_tor,
                                                cfg.tors_per_domain});
    const orch::FatTreeOrchestrator probe_orch(probe, cfg.k,
                                               cfg.gpus_per_node);
    cfg.n_constraints = probe_orch.max_constraints() / 2;
  }

  const std::uint64_t trace_seed = rng.next();
  cfg.seed = rng.next();
  cfg.inject.session_failure_rate = inject_rate;
  cfg.inject.seed = rng.next();

  ctrl::WorkloadConfig wl;
  wl.duration_days = duration_days;
  wl.tp_size_gpus = cfg.gpus_per_node * 8;  // m = 8 nodes per TP group
  wl.arrival_rate_per_day = arrival_rate(wl, nodes, 8, utilization);

  const fault::FaultTrace trace =
      make_trial_trace(model, nodes, duration_days, trace_seed);
  return ctrl::run_control_plane(cfg, trace,
                                 ctrl::generate_workload(wl, rng));
}

std::string quantile_s(const ctrl::SloHistogram& h, double q) {
  return h.count() == 0 ? "-" : Table::fmt(h.quantile(q), 4) + " s";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_args(argc, argv);
  bench::banner(std::string("Control plane: event-driven orchestration "
                            "service SLOs (trace model: ") +
                fault::trace_model_name(opt.trace_model) + ")");
  const int trials = bench::trials_or(opt, opt.quick ? 2 : 3);
  const BenchScale scale = opt.quick
                               ? BenchScale{6.0, {256, 512}}
                               : BenchScale{96.0, {2560, 10240}};

  runtime::SweepSpec spec;
  spec.seed = 90;
  spec.trials = trials;
  spec.keep_samples = false;
  spec.axes = {
      runtime::Axis::of_values("Nodes", scale.node_counts,
                               [](double n) {
                                 return std::to_string(
                                     static_cast<int>(n));
                               }),
      // Offered load relative to the FAULT-FREE group capacity. The
      // paper-calibrated trace plus ToR-alignment expansion shave roughly
      // 10-15% off that in steady state (incidents transiently much more),
      // so 0.75 probes a loaded-but-stable fleet and 0.45 a comfortable one;
      // beyond ~0.8 the queue no longer drains between incidents.
      runtime::Axis::of_values("Load", {0.45, 0.75},
                               [](double u) { return Table::pct(u, 0); }),
      // Injected session-switch failure rate: 0 is the clean baseline, 10%
      // stress-tests retry/backoff + graceful degradation (the acceptance
      // bar: every run completes, retries converge, SLO split is stable).
      runtime::Axis::of_values("Inject", {0.0, 0.10},
                               [](double r) { return Table::pct(r, 0); }),
  };

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = runtime::run_sweep_reduce(
      spec, ctrl::ControlPlaneResult{},
      [&](const runtime::Scenario& s, Rng& rng) {
        return run_trial(static_cast<int>(s.value(0)), s.value(1),
                         s.value(2), scale.duration_days, opt.trace_model,
                         rng);
      },
      [](ctrl::ControlPlaneResult& acc, ctrl::ControlPlaneResult&& r) {
        acc.merge(r);
      },
      opt.threads);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  {
    Table table("Control-plane SLOs (job wait = submit -> running, incl. "
                "reconfig drain; " +
                std::to_string(trials) + " trials/cell)");
    table.set_header({"Nodes", "Load", "Inject", "Wait p50", "Wait p99",
                      "Wait p999", "Reconf p50", "Reconf p99",
                      "Reconf p999"});
    for (std::size_t ni = 0; ni < spec.axes[0].size(); ++ni) {
      for (std::size_t ui = 0; ui < spec.axes[1].size(); ++ui) {
        for (std::size_t fi = 0; fi < spec.axes[2].size(); ++fi) {
          const auto& c = result.cell({ni, ui, fi});
          table.add_row({spec.axes[0].labels[ni], spec.axes[1].labels[ui],
                         spec.axes[2].labels[fi],
                         quantile_s(c.job_wait_s, 0.50),
                         quantile_s(c.job_wait_s, 0.99),
                         quantile_s(c.job_wait_s, 0.999),
                         quantile_s(c.reconfig_latency_s, 0.50),
                         quantile_s(c.reconfig_latency_s, 0.99),
                         quantile_s(c.reconfig_latency_s, 0.999)});
        }
      }
    }
    bench::emit(opt, "ctrl_plane_slo", table);
  }

  {
    // The robustness split: what the 10%-inject cells actually paid.
    // Degraded wait = jobs that started with >= 1 steer given up; retried
    // reconfig latency = successes that needed >= 1 retry. "Pend end" are
    // requests still backing off at the horizon (never a stall: the run
    // completed around them).
    Table table("Degraded-mode SLOs and retry/dead-letter accounting (" +
                std::to_string(trials) + " trials/cell)");
    table.set_header({"Nodes", "Load", "Inject", "Degr wait p50",
                      "Degr wait p99", "Retry reconf p99", "Degr starts",
                      "Retried", "Dead", "Injected", "Pend end"});
    for (std::size_t ni = 0; ni < spec.axes[0].size(); ++ni) {
      for (std::size_t ui = 0; ui < spec.axes[1].size(); ++ui) {
        for (std::size_t fi = 0; fi < spec.axes[2].size(); ++fi) {
          const auto& c = result.cell({ni, ui, fi});
          table.add_row({spec.axes[0].labels[ni], spec.axes[1].labels[ui],
                         spec.axes[2].labels[fi],
                         quantile_s(c.job_wait_degraded_s, 0.50),
                         quantile_s(c.job_wait_degraded_s, 0.99),
                         quantile_s(c.reconfig_latency_retried_s, 0.99),
                         std::to_string(c.degraded_starts),
                         std::to_string(c.reconfig_retried),
                         std::to_string(c.reconfig_dead_lettered),
                         std::to_string(c.reconfig_injected),
                         std::to_string(c.reconfig_pending_end)});
        }
      }
    }
    bench::emit(opt, "ctrl_plane_degraded", table);
  }

  std::uint64_t total_events = 0, max_cell_events = 0;
  {
    Table table("Control-plane throughput and churn (events = engine events "
                "executed, summed over trials)");
    table.set_header({"Nodes", "Load", "Inject", "Events", "Arrivals",
                      "Done", "Preempt", "Churn", "Coalesced", "Peak queue"});
    for (std::size_t ni = 0; ni < spec.axes[0].size(); ++ni) {
      for (std::size_t ui = 0; ui < spec.axes[1].size(); ++ui) {
        for (std::size_t fi = 0; fi < spec.axes[2].size(); ++fi) {
          const auto& c = result.cell({ni, ui, fi});
          total_events += c.events;
          if (trials > 0)
            max_cell_events = std::max(max_cell_events, c.events /
                                       static_cast<std::uint64_t>(trials));
          table.add_row({spec.axes[0].labels[ni], spec.axes[1].labels[ui],
                         spec.axes[2].labels[fi],
                         std::to_string(c.events), std::to_string(c.arrivals),
                         std::to_string(c.completions),
                         std::to_string(c.preemptions),
                         std::to_string(c.placement_churn),
                         std::to_string(c.reconfig_coalesced),
                         std::to_string(c.peak_reconfig_depth)});
        }
      }
    }
    bench::emit(opt, "ctrl_plane_throughput", table);
  }

  // Deterministic floor check (full mode): the acceptance bar is >= 1M
  // events in a single 10k-node run. Wall-clock throughput is environment
  // noise, so it goes to stderr only.
  std::printf("Largest cell: ~%llu events per run%s\n",
              static_cast<unsigned long long>(max_cell_events),
              opt.quick ? " (quick mode; full mode sustains >= 1M)" : "");
  if (!opt.quick && max_cell_events < 1000000)
    std::puts("WARNING: largest cell fell short of the 1M-event floor");
  std::fprintf(stderr, "ctrl-plane: %llu events total in %.2f s (%.0f events/s)\n",
               static_cast<unsigned long long>(total_events), wall_s,
               wall_s > 0.0 ? static_cast<double>(total_events) / wall_s : 0.0);
  bench::finish(opt);
  return 0;
}
