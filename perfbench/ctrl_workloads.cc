// ctrl_steady and ctrl_storm: the control-plane daemon (src/ctrl) run as one
// sweep cell of independent trials through runtime::run_sweep_reduce — the
// shape of bench_ctrl_plane's critical cell. Inputs are generated exactly as
// bench_ctrl_plane draws them (same per-trial substream, same draw order),
// but before timing starts.
#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/ctrl/control_plane.h"
#include "src/ctrl/slo.h"
#include "src/ctrl/workload.h"
#include "src/dcn/fattree.h"
#include "src/evsim/engine.h"
#include "src/fault/generator.h"
#include "src/fault/physics_generator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/ocstrx/fabric_manager.h"
#include "src/ocstrx/reconfig_queue.h"
#include "src/orch/incremental.h"
#include "src/orch/orchestrator.h"
#include "src/runtime/sweep.h"

namespace perfbench {
namespace {

using namespace ihbd;

struct CtrlShape {
  const char* name;
  int nodes;
  double days;
  int trials;
  double load;    ///< offered load vs fault-free group capacity
  double inject;  ///< session-switch failure rate
  fault::TraceModel model;
};

constexpr double kHeartbeatDays = 0.25;  // ControlPlane::run's health sampler
constexpr int kNodesPerGroup = 8;        // m: TP group = 8 nodes x 4 GPUs

struct TrialInput {
  ctrl::ControlPlaneConfig cfg;
  fault::FaultTrace trace;
  std::vector<ctrl::JobArrival> arrivals;
};

struct Inputs {
  std::vector<TrialInput> trials;
  double fault_gen_s = 0.0;
};

/// Offered load -> Poisson arrival intensity (bench_ctrl_plane's formula).
double arrival_rate(const ctrl::WorkloadConfig& wl, int nodes,
                    double utilization) {
  const double capacity_groups =
      static_cast<double>(nodes) / kNodesPerGroup;
  const double mean_groups = 0.5 * (wl.min_groups + wl.max_groups);
  return utilization * capacity_groups / (wl.mean_run_days * mean_groups);
}

fault::FaultTrace make_trace(fault::TraceModel model, int nodes, double days,
                             std::uint64_t seed) {
  if (model == fault::TraceModel::kPoisson) {
    fault::TraceGenConfig tg;
    tg.node_count = nodes;
    tg.duration_days = days;
    tg.seed = seed;
    return fault::generate_trace(tg);
  }
  fault::PhysicsTraceConfig cfg = model == fault::TraceModel::kStorm
                                      ? fault::storm_trace_defaults()
                                      : fault::physics_trace_defaults();
  cfg.node_count = nodes;
  cfg.duration_days = days;
  cfg.seed = seed;
  return fault::generate_physics_trace(cfg);
}

runtime::SweepSpec make_spec(const CtrlShape& shape, std::uint64_t seed) {
  runtime::SweepSpec spec;
  spec.seed = seed;
  spec.trials = shape.trials;
  spec.keep_samples = false;
  spec.axes = {runtime::Axis::of_labels("Workload", {shape.name})};
  return spec;
}

Inputs make_inputs(const CtrlShape& shape, const runtime::SweepSpec& spec) {
  IHBD_TRACE_SPAN("bench.setup");
  ctrl::ControlPlaneConfig base;
  base.node_count = shape.nodes;
  base.nodes_per_tor = 4;
  base.tors_per_domain = 32;
  {
    // The moderate alignment setting bench_ctrl_plane pins.
    const dcn::FatTree probe(dcn::FatTreeConfig{
        shape.nodes, base.nodes_per_tor, base.tors_per_domain});
    const orch::FatTreeOrchestrator probe_orch(probe, base.k,
                                               base.gpus_per_node);
    base.n_constraints = probe_orch.max_constraints() / 2;
  }
  base.inject.session_failure_rate = shape.inject;

  ctrl::WorkloadConfig wl;
  wl.duration_days = shape.days;
  wl.tp_size_gpus = base.gpus_per_node * kNodesPerGroup;
  wl.arrival_rate_per_day = arrival_rate(wl, shape.nodes, shape.load);

  Inputs in;
  for (int t = 0; t < shape.trials; ++t) {
    Rng rng = runtime::trial_rng(spec, 0, t);
    const std::uint64_t trace_seed = rng.next();
    ctrl::ControlPlaneConfig cfg = base;
    cfg.seed = rng.next();
    cfg.inject.seed = rng.next();
    const double g0 = now_s();
    fault::FaultTrace trace =
        make_trace(shape.model, shape.nodes, shape.days, trace_seed);
    in.fault_gen_s += now_s() - g0;
    in.trials.push_back(
        {cfg, std::move(trace), ctrl::generate_workload(wl, rng)});
  }
  return in;
}

/// A copy of `trace` with its own (empty) timeline cache, so every
/// repetition builds the transition timeline as a first run does.
fault::FaultTrace fresh(const fault::FaultTrace& trace) {
  return fault::FaultTrace(trace.node_count(), trace.duration_days(),
                           trace.events());
}

/// One unit of timed work (a trial) and the probes run beside it on its
/// thread.
struct Unit {
  std::thread::id thread;
  double raw_s = 0.0;    ///< host seconds of the work itself
  double probe_s = 0.0;  ///< host seconds of its probes
  double speed = 1.0;    ///< see speed_of
};

/// A timed section of `wall_s` host seconds that ran `units`, at the
/// reference host speed: the probe time of its busiest thread is taken out
/// and the rest scaled by the units' time-weighted speed. The cell's trials
/// run one after another today, so that is all of their probes; were they
/// spread over the pool, the busiest thread would still bound the wall.
struct SectionTime {
  double net_s = 0.0;  ///< host seconds without the probes
  double speed = 1.0;  ///< time-weighted speed of the units
  double ref_s = 0.0;  ///< net_s * speed
};

SectionTime section_time(double wall_s, const std::vector<Unit>& units) {
  std::map<std::thread::id, double> probes;
  double raw = 0.0;
  double ref = 0.0;
  for (const Unit& u : units) {
    probes[u.thread] += u.probe_s;
    raw += u.raw_s;
    ref += u.raw_s * u.speed;
  }
  double busiest = 0.0;
  for (const auto& [thread, s] : probes) busiest = std::max(busiest, s);
  SectionTime t;
  t.net_s = wall_s - busiest;
  t.speed = raw > 0.0 ? ref / raw : 1.0;
  t.ref_s = t.net_s * t.speed;
  return t;
}

struct TrialStats {
  double ctor_s = 0.0;
  double run_s = 0.0;
  Unit unit;                     ///< ctor + run between two probes
  std::vector<double> ticks_ms;  ///< host ms per heartbeat interval
  double pending_sum = 0.0;      ///< engine queue depth summed over ticks
  bool threw = false;
  ctrl::ControlPlaneResult result;
};

struct Rep {
  double wall_s = 0.0;  ///< host seconds, probes included
  double cpu_s = 0.0;
  SectionTime time;
  std::vector<TrialStats> trials;
  ctrl::ControlPlaneResult merged;
  obs::MetricsSnapshot snap;
};

Rep run_rep(const runtime::SweepSpec& spec, const Inputs& in, int threads) {
  IHBD_TRACE_SPAN("bench.rep");
  std::vector<fault::FaultTrace> traces;
  std::vector<std::vector<ctrl::JobArrival>> arrivals;
  for (const TrialInput& t : in.trials) {
    traces.push_back(fresh(t.trace));
    arrivals.push_back(t.arrivals);
  }
  Rep rep;
  rep.trials.resize(in.trials.size());
  const double t0 = now_s();
  const double c0 = cpu_s();
  auto grid = runtime::run_sweep_reduce(
      spec, ctrl::ControlPlaneResult{},
      [&](const runtime::Scenario& s, Rng&) {
        IHBD_TRACE_SPAN("bench.ctrl_trial");
        const auto t = static_cast<std::size_t>(s.trial());
        TrialStats& ts = rep.trials[t];
        const double p0 = probe_s();
        try {
          const double a = now_s();
          ctrl::ControlPlane cp(in.trials[t].cfg, traces[t],
                                std::move(arrivals[t]));
          double last = now_s();
          ts.ctor_s = last - a;
          cp.health_probe = [&ts, &last](const ctrl::ControlPlane& plane,
                                         double) {
            const double x = now_s();
            ts.ticks_ms.push_back((x - last) * 1e3);
            last = x;
            ts.pending_sum += static_cast<double>(plane.engine().pending());
          };
          const double r0 = now_s();
          {
            IHBD_TRACE_SPAN("ctrl.run");
            ts.result = cp.run();
          }
          ts.run_s = now_s() - r0;
        } catch (const std::exception& e) {
          std::cerr << "trial " << t << " threw: " << e.what() << "\n";
          ts.threw = true;
          ts.result = {};
        }
        const double probes = p0 + probe_s();
        ts.unit = {std::this_thread::get_id(), ts.ctor_s + ts.run_s, probes,
                   speed_of(probes, 2.0)};
        return ts.result;
      },
      [](ctrl::ControlPlaneResult& acc, ctrl::ControlPlaneResult&& r) {
        acc.merge(r);
      },
      threads);
  rep.wall_s = now_s() - t0;
  rep.cpu_s = cpu_s() - c0;
  std::vector<Unit> units;
  for (const TrialStats& ts : rep.trials) units.push_back(ts.unit);
  rep.time = section_time(rep.wall_s, units);
  rep.merged = std::move(grid.cells.front());
  return rep;
}

std::uint64_t digest(const ctrl::ControlPlaneResult& r) {
  serde::Writer w;
  r.save(w);
  return fnv1a(w.take());
}

/// Per-trial output checks plus repeatability against the first
/// repetition; every trial failing any of them is one failed op.
void score_rep(Outcome& out, const Rep& rep,
               std::vector<std::uint64_t>& reference) {
  const bool first = reference.empty();
  std::vector<double> ticks;
  for (std::size_t t = 0; t < rep.trials.size(); ++t) {
    const TrialStats& ts = rep.trials[t];
    const ctrl::ControlPlaneResult& r = ts.result;
    const std::uint64_t d = digest(r);
    if (first) reference.push_back(d);
    bool ok = check(out, "trial_completed", !ts.threw);
    ok &= check(out, "reconfig_drained_plus_pending_eq_enqueued",
                r.reconfig_drained + r.reconfig_pending_end ==
                    r.reconfig_enqueued);
    ok &= check(out, "starts_eq_wait_observations",
                r.starts ==
                    r.job_wait_s.count() + r.job_wait_degraded_s.count());
    ok &= check(out, "completions_le_starts", r.completions <= r.starts);
    ok &= check(out, "repeatable_across_repetitions", d == reference[t]);
    ++out.attempted;
    if (!ok) ++out.failed;
    for (const double ms : ts.ticks_ms) ticks.push_back(ms * ts.unit.speed);
  }
  if (first) out.peak_rss_mb = peak_rss_mb();
  out.wall_s.push_back(rep.time.ref_s);
  out.host_wall_s.push_back(rep.time.net_s);
  out.host_cpu_s.push_back(rep.cpu_s);
  out.host_speed.push_back(rep.time.speed);
  out.events_per_s.push_back(static_cast<double>(rep.merged.events) /
                             rep.time.ref_s);
  if (!ticks.empty()) {
    out.tick_ms_p50.push_back(nearest_rank(ticks, 0.50));
    out.tick_ms_p90.push_back(nearest_rank(ticks, 0.90));
    out.tick_samples = ticks.size();
  }
}

Json sim_stats(const ctrl::ControlPlaneResult& r) {
  Json j;
  j.count("events", r.events)
      .count("arrivals", r.arrivals)
      .count("starts", r.starts)
      .count("completions", r.completions)
      .count("preemptions", r.preemptions)
      .num("job_wait_s_p50", r.job_wait_s.quantile(0.50))
      .num("job_wait_s_p99", r.job_wait_s.quantile(0.99))
      .num("reconfig_s_p99", r.reconfig_latency_s.quantile(0.99))
      .count("reconfig_retried", r.reconfig_retried)
      .count("reconfig_dead_lettered", r.reconfig_dead_lettered)
      .count("reconfig_injected", r.reconfig_injected)
      .count("degraded_starts", r.degraded_starts)
      .str("digest", hex64(digest(r)));
  return j;
}

// ---------------------------------------------------------------- layer drives

using Timeline = std::vector<fault::FaultTransition>;

/// The timeline edges that change a node's down/up state (overlapping
/// intervals counted by depth, as ControlPlane::on_fault_day does), in
/// timeline order; `down` is the node's new state.
Timeline depth_filtered_flips(const Timeline& tl, int nodes) {
  std::vector<int> depth(static_cast<std::size_t>(nodes), 0);
  Timeline flips;
  for (const fault::FaultTransition& tr : tl) {
    int& d = depth[static_cast<std::size_t>(tr.node)];
    const bool was_down = d > 0;
    d += tr.down ? 1 : -1;
    if (was_down != (d > 0)) flips.push_back(tr);
  }
  return flips;
}

struct OrchDrive {
  std::uint64_t flips = 0;
  std::uint64_t churn = 0;
  double busy_s = 0.0;
  std::vector<double> set_faulty_us;
};

/// The trace's depth-filtered flips replayed through the daemon's
/// IncrementalPlacement, each set_faulty call timed.
void drive_orch(const TrialInput& in, const Timeline& flips, OrchDrive& d) {
  IHBD_TRACE_SPAN("drive.orch");
  const ctrl::ControlPlaneConfig& cfg = in.cfg;
  const dcn::FatTree tree(dcn::FatTreeConfig{
      cfg.node_count, cfg.nodes_per_tor, cfg.tors_per_domain});
  const orch::FatTreeOrchestrator orch(tree, cfg.k, cfg.gpus_per_node);
  orch::IncrementalPlacement inc(
      orch,
      orch::JobSpec{in.arrivals.empty() ? 32 : in.arrivals[0].tp_size_gpus,
                    0},
      cfg.n_constraints < 0 ? orch.max_constraints() : cfg.n_constraints,
      std::vector<bool>(static_cast<std::size_t>(cfg.node_count), false));
  for (const fault::FaultTransition& flip : flips) {
    const double a = now_s();
    const orch::PlacementDelta delta = inc.set_faulty(flip.node, flip.down);
    const double dt = now_s() - a;
    d.busy_s += dt;
    d.set_faulty_us.push_back(dt * 1e6);
    d.churn += delta.removed.size() + delta.added.size();
  }
  d.flips += flips.size();
}

std::vector<ocstrx::NodeFabricManager> make_fleet(
    const ctrl::ControlPlaneConfig& cfg) {
  // The daemon's fleet: per-node managers with the "hbd" steering and the
  // idle "park" loopback preloaded (ControlPlane's constructor).
  ocstrx::Session hbd;
  ocstrx::Session park;
  for (int b = 0; b < cfg.bundles_per_node; ++b) {
    hbd[static_cast<std::uint32_t>(b)] = b % 2 == 0
                                             ? ocstrx::OcsPath::kExternal1
                                             : ocstrx::OcsPath::kExternal2;
    park[static_cast<std::uint32_t>(b)] = ocstrx::OcsPath::kLoopback;
  }
  std::vector<ocstrx::NodeFabricManager> fleet;
  fleet.reserve(static_cast<std::size_t>(cfg.node_count));
  for (int n = 0; n < cfg.node_count; ++n) {
    fleet.emplace_back(cfg.gpus_per_node, cfg.bundles_per_node,
                       cfg.trx_per_bundle);
    fleet.back().preload_session("hbd", hbd);
    fleet.back().preload_session("park", park);
  }
  return fleet;
}

struct OcsDrive {
  std::uint64_t requests = 0;
  double busy_s = 0.0;
  std::vector<double> batch_us;
  std::uint64_t apply_calls = 0;
  double apply_s = 0.0;
};

/// ReconfigQueue enqueue/drain_batch over the daemon's fleet, sessions,
/// batch size, retry policy and injection plan, at the run's request and
/// batch volume. Requests target pseudo-random TP groups of consecutive
/// nodes, alternating each node between "hbd" and "park". The queue clock
/// advances one drain period per batch while the trace's flips are spread
/// over the batches, so requests to failed bundles back off, retry and
/// dead-letter as in the run.
void drive_ocstrx(const TrialInput& in, const ctrl::ControlPlaneResult& r,
                  const Timeline& flips, OcsDrive& d) {
  IHBD_TRACE_SPAN("drive.ocstrx");
  const ctrl::ControlPlaneConfig& cfg = in.cfg;
  const std::string hbd = "hbd";
  const std::string park = "park";
  std::vector<ocstrx::NodeFabricManager> fleet = make_fleet(cfg);
  ocstrx::ReconfigQueue queue(cfg.reconfig_batch, cfg.retry, cfg.inject);
  Rng rng(cfg.seed);
  Rng pick(cfg.seed ^ 0x5bd1e995u);
  const auto nodes = static_cast<std::uint64_t>(cfg.node_count);
  std::vector<char> parked(nodes, 1);

  const std::uint64_t requests = r.reconfig_enqueued + r.reconfig_coalesced;
  const std::uint64_t batches = std::max<std::uint64_t>(1, r.reconfig_batches);
  const double horizon = in.trace.duration_days();
  std::size_t next_flip = 0;
  std::uint64_t sent = 0;
  std::uint64_t group = 0;
  for (std::uint64_t b = 0; b < batches; ++b) {
    const double trace_day =
        horizon * static_cast<double>(b + 1) / static_cast<double>(batches);
    for (; next_flip < flips.size() && flips[next_flip].day <= trace_day;
         ++next_flip) {
      auto& fm = fleet[static_cast<std::size_t>(flips[next_flip].node)];
      for (int k = 0; k < fm.bundle_count(); ++k) {
        if (flips[next_flip].down) {
          fm.bundle(k).fail();
        } else {
          fm.bundle(k).repair();
        }
      }
    }
    const double now = static_cast<double>(b) * cfg.drain_period_days;
    const std::uint64_t target = requests * (b + 1) / batches;
    const double e0 = now_s();
    for (; sent < target; ++sent) {
      // Requests come a TP group at a time, as job starts, releases and
      // repairs steer or park whole groups.
      if (sent % kNodesPerGroup == 0)
        group = pick.uniform_index(nodes / kNodesPerGroup) * kNodesPerGroup;
      const std::uint64_t node = group + sent % kNodesPerGroup;
      parked[node] ^= 1;
      queue.enqueue(static_cast<int>(node), parked[node] ? park : hbd, now);
    }
    const double e1 = now_s();
    const std::vector<ocstrx::ReconfigOutcome> outcomes =
        queue.drain_batch(fleet, now, rng);
    const double e2 = now_s();
    d.busy_s += e2 - e0;
    d.batch_us.push_back((e2 - e1) * 1e6);
  }
  d.requests += requests;

  // apply_session alone, on a healthy fleet, at the run's drained volume.
  std::vector<ocstrx::NodeFabricManager> healthy = make_fleet(cfg);
  Rng apply_rng(cfg.seed);
  const double a0 = now_s();
  for (std::uint64_t i = 0; i < r.reconfig_drained; ++i) {
    healthy[i % nodes].apply_session((i / nodes) % 2 == 0 ? hbd : park,
                                     apply_rng);
  }
  d.apply_s += now_s() - a0;
  d.apply_calls += r.reconfig_drained;
}

/// One self-rescheduling no-op event chain.
struct Chain {
  double period = 0.0;
  std::uint64_t left = 0;
};

void fire(evsim::Engine& e, Chain* c) {
  if (--c->left > 0)
    e.schedule_in(c->period, [c](evsim::Engine& en) { fire(en, c); });
}

/// evsim dispatch floor: no-op events at the run's event count — the drain
/// chain at the daemon's drain period for the run's batch count, the
/// heartbeat timer, and the remaining events spread over as many chains as
/// the run's mean engine queue depth — run to the same horizon.
double drive_evsim(const ctrl::ControlPlaneResult& r, double horizon,
                   double drain_period, double mean_pending,
                   std::uint64_t& executed) {
  IHBD_TRACE_SPAN("drive.evsim");
  evsim::Engine e;
  const auto heartbeats =
      static_cast<std::uint64_t>(std::floor(horizon / kHeartbeatDays));
  const std::uint64_t drains = r.reconfig_batches;
  const std::uint64_t others =
      r.events > drains + heartbeats ? r.events - drains - heartbeats : 0;
  const auto k = static_cast<std::uint64_t>(
      std::max(1.0, std::round(mean_pending)));
  std::vector<Chain> chains(k + 1);
  chains[0] = {drain_period, drains};
  if (drains > 0)
    e.schedule_at(0.0, [c = &chains[0]](evsim::Engine& en) { fire(en, c); });
  for (std::uint64_t i = 1; i <= k; ++i) {
    Chain& c = chains[i];
    c.left = others / k + (i <= others % k ? 1 : 0);
    if (c.left == 0) continue;
    c.period = horizon / static_cast<double>(c.left + 1);
    const double first =
        c.period * static_cast<double>(i) / static_cast<double>(k + 1);
    e.schedule_at(first, [p = &c](evsim::Engine& en) { fire(en, p); });
  }
  e.schedule_every(kHeartbeatDays, kHeartbeatDays, [](evsim::Engine&) {});
  const double a = now_s();
  e.run_until(horizon);
  const double dt = now_s() - a;
  executed = e.executed();
  return dt;
}

/// SloHistogram::observe at the run's observation count over log-uniform
/// latencies (0.1 s .. 50 min); returns busy seconds.
double drive_slo(std::uint64_t observations, std::uint64_t seed) {
  IHBD_TRACE_SPAN("drive.slo");
  std::vector<double> xs(observations);
  Rng rng(seed);
  for (double& x : xs) x = std::exp(rng.uniform(-2.3, 8.0));
  ctrl::SloHistogram h;
  const double a = now_s();
  for (const double x : xs) h.observe(x);
  return now_s() - a;
}

std::uint64_t slo_observations(const ctrl::ControlPlaneResult& r) {
  return r.job_wait_s.count() + r.job_wait_degraded_s.count() +
         r.reconfig_latency_s.count() + r.reconfig_latency_retried_s.count();
}

/// Per-layer split of a traced repetition (see layers.json for what each
/// metric means and which end-to-end metric it should move).
void split_layers(Outcome& out, const Inputs& in, const Rep& tr,
                  double overhead_frac, double fault_gen_s, int threads) {
  std::map<std::string, double>& L = out.layers;
  const ctrl::ControlPlaneResult& m = tr.merged;
  const obs::MetricsSnapshot& snap = tr.snap;

  double run_s = 0.0, ctor_s = 0.0;
  for (const TrialStats& ts : tr.trials) {
    run_s += ts.run_s;
    ctor_s += ts.ctor_s;
  }
  L["runtime.pool_idle_frac"] = pool_idle_frac(snap, threads, tr.wall_s);
  L["runtime.critical_path_frac"] = (run_s + ctor_s) / tr.time.net_s;
  L["runtime.tasks_stolen"] =
      static_cast<double>(obs_counter(snap, "pool.tasks_stolen"));

  L["ctrl.run_s"] = run_s;
  L["ctrl.ctor_s"] = ctor_s;
  L["ctrl.events"] = static_cast<double>(obs_counter(snap, "ctrl.events"));
  L["ctrl.ns_per_event"] = run_s * 1e9 / static_cast<double>(m.events);
  L["ctrl.job_starts"] =
      static_cast<double>(obs_counter(snap, "ctrl.job_starts"));
  L["ctrl.preemptions"] =
      static_cast<double>(obs_counter(snap, "ctrl.preemptions"));
  L["ctrl.slo_observations"] = static_cast<double>(slo_observations(m));
  const auto counter_is = [&](const char* name, std::uint64_t v) {
    return obs_counter(snap, name) == v;
  };
  check(out, "obs_counters_match_results",
        counter_is("ctrl.events", m.events) &&
            counter_is("ctrl.job_starts", m.starts) &&
            counter_is("ctrl.preemptions", m.preemptions) &&
            counter_is("ctrl.reconfig_enqueued", m.reconfig_enqueued) &&
            counter_is("ctrl.reconfig_retried", m.reconfig_retried));

  L["ocstrx.enqueued"] = static_cast<double>(m.reconfig_enqueued);
  L["ocstrx.coalesced"] = static_cast<double>(m.reconfig_coalesced);
  L["ocstrx.drained"] = static_cast<double>(m.reconfig_drained);
  L["ocstrx.batches"] = static_cast<double>(m.reconfig_batches);
  L["ocstrx.retried"] = static_cast<double>(m.reconfig_retried);
  L["ocstrx.dead_lettered"] = static_cast<double>(m.reconfig_dead_lettered);
  L["ocstrx.injected"] = static_cast<double>(m.reconfig_injected);
  const double attempts =
      static_cast<double>(m.reconfig_latency_s.count() +
                          m.reconfig_latency_retried_s.count() +
                          m.reconfig_failed);
  L["ocstrx.first_try_ok_frac"] =
      static_cast<double>(m.reconfig_latency_s.count()) /
      std::max(1.0, static_cast<double>(m.reconfig_drained));
  L["ocstrx.requests_per_batch"] =
      attempts / std::max(1.0, static_cast<double>(m.reconfig_batches));

  double timeline_s = 0.0, evsim_s = 0.0, slo_s = 0.0;
  std::uint64_t trace_events = 0, transitions = 0, evsim_events = 0;
  OrchDrive orch_d;
  OcsDrive ocs_d;
  for (std::size_t t = 0; t < in.trials.size(); ++t) {
    const TrialInput& ti = in.trials[t];
    const fault::FaultTrace trace = fresh(ti.trace);
    const double a = now_s();
    const auto tl = trace.transition_timeline();
    timeline_s += now_s() - a;
    trace_events += trace.events().size();
    transitions += tl->size();
    const auto flips = depth_filtered_flips(*tl, ti.cfg.node_count);
    drive_orch(ti, flips, orch_d);
    drive_ocstrx(ti, tr.trials[t].result, flips, ocs_d);
    std::uint64_t executed = 0;
    const double mean_pending =
        tr.trials[t].ticks_ms.empty()
            ? 1.0
            : tr.trials[t].pending_sum /
                  static_cast<double>(tr.trials[t].ticks_ms.size());
    evsim_s += drive_evsim(tr.trials[t].result, trace.duration_days(),
                           ti.cfg.drain_period_days, mean_pending, executed);
    evsim_events += executed;
    slo_s += drive_slo(slo_observations(tr.trials[t].result), ti.cfg.seed);
  }
  check(out, "orch_drive_churn_matches_run", orch_d.churn == m.placement_churn);

  L["ctrl.slo_observe_ns"] =
      slo_s * 1e9 / std::max(1.0, L["ctrl.slo_observations"]);

  L["ocstrx.drain_batch_us_p50"] = nearest_rank(ocs_d.batch_us, 0.50);
  L["ocstrx.drain_batch_us_p90"] = nearest_rank(ocs_d.batch_us, 0.90);
  L["ocstrx.ns_per_request"] =
      ocs_d.busy_s * 1e9 / std::max<double>(1.0, ocs_d.requests);
  L["ocstrx.apply_session_ns"] =
      ocs_d.apply_s * 1e9 / std::max<double>(1.0, ocs_d.apply_calls);
  L["ocstrx.busy_frac"] = ocs_d.busy_s / run_s;

  L["orch.flips"] = static_cast<double>(orch_d.flips);
  L["orch.churn_groups"] = static_cast<double>(orch_d.churn);
  const bool any_flip = !orch_d.set_faulty_us.empty();
  L["orch.set_faulty_us_p50"] =
      any_flip ? nearest_rank(orch_d.set_faulty_us, 0.50) : 0.0;
  L["orch.set_faulty_us_p99"] =
      any_flip ? nearest_rank(orch_d.set_faulty_us, 0.99) : 0.0;
  if (!tail_supported(orch_d.set_faulty_us.size(), 0.99))
    std::cerr << "note: orch.set_faulty_us_p99 rests on fewer than 10 "
                 "samples beyond it\n";
  L["orch.busy_frac"] = orch_d.busy_s / run_s;

  L["evsim.ns_per_event"] =
      evsim_s * 1e9 / std::max<double>(1.0, evsim_events);
  L["evsim.busy_frac"] = evsim_s / run_s;

  L["fault.gen_s"] = fault_gen_s;
  L["fault.trace_events"] = static_cast<double>(trace_events);
  L["fault.transitions"] = static_cast<double>(transitions);
  L["fault.timeline_s"] = timeline_s;

  L["obs.overhead_frac"] = overhead_frac;
}

Outcome run_ctrl(const RunOptions& opt, const CtrlShape& shape) {
  Outcome out;
  const runtime::SweepSpec spec = make_spec(shape, opt.seed);
  std::vector<double> gen_s;
  const Inputs in = timed_setup(out, [&] {
    Inputs made = make_inputs(shape, spec);
    gen_s.push_back(made.fault_gen_s);
    return made;
  });

  std::vector<std::uint64_t> reference;  // per-trial digests, first rep
  Rep traced;
  const double overhead = spend_budget(
      opt, out,
      [&] {
        const Rep rep = run_rep(spec, in, opt.threads);
        score_rep(out, rep, reference);
        if (out.wall_s.size() == 1) out.sim = sim_stats(rep.merged);
      },
      [&] {
        traced = observed([&] { return run_rep(spec, in, opt.threads); });
        // Instrumentation may not perturb results.
        for (std::size_t t = 0; t < traced.trials.size(); ++t) {
          const bool same = digest(traced.trials[t].result) == reference[t];
          check(out, "traced_equals_untraced", same);
          ++out.attempted;
          if (!same) ++out.failed;
        }
        return traced.time.ref_s;
      });
  if (opt.trace) {
    split_layers(out, in, traced, overhead, nearest_rank(gen_s, 0.5),
                 opt.threads);
    obs::set_trace_enabled(false);
  }
  return out;
}

}  // namespace

Outcome run_ctrl_steady(const RunOptions& opt) {
  return run_ctrl(opt, CtrlShape{"ctrl_steady", 5120, 8.0, 4, 0.75, 0.0,
                                 fault::TraceModel::kPoisson});
}

Outcome run_ctrl_storm(const RunOptions& opt) {
  return run_ctrl(opt, CtrlShape{"ctrl_storm", 2560, 16.0, 4, 0.75, 0.10,
                                 fault::TraceModel::kStorm});
}

}  // namespace perfbench
