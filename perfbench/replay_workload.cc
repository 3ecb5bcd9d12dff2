// replay_mc: Monte-Carlo fault-trace replay (paper §6.2, Figs. 13-16 and
// 20). Sixteen Poisson traces of a 23,040-node cluster over the paper's 348
// days, each replayed over the 8 paper architectures x TP {8,16,32,64} at
// hourly steps on the fig13 grid path: one run_sweep_reduce grid per trace,
// every grid's cells on one shared pool.
#include <algorithm>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/fault/generator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/sweep.h"
#include "src/runtime/thread_pool.h"
#include "src/topo/baselines.h"
#include "src/topo/waste.h"

namespace perfbench {
namespace {

using namespace ihbd;

constexpr int kTraces = 16;
constexpr int kNodes = 23040;  // 4-GPU nodes; tiles TPUv4's 64-node cubes
constexpr int kGpusPerNode = 4;
constexpr double kStepDays = 1.0 / 24.0;
const std::vector<double> kTps = {8, 16, 32, 64};
constexpr double kOracleDays = 14.0;
/// A grid keeps every pool thread busy on memory-heavy cells, so probes run
/// beside its cells would measure the other cells as much as the host.
/// Instead every thread probes at once (half a reference length) between
/// grids, and a grid takes the mean speed of the probes before and after it.
constexpr double kGridProbe = 0.5;

using Archs = std::vector<std::unique_ptr<topo::HbdArchitecture>>;

struct Inputs {
  std::vector<fault::FaultTrace> traces;
  double fault_gen_s = 0.0;
};

/// NVL-36 cannot host TP-64; the paper (and the fig13 bench) omit the cell.
bool supports(const topo::HbdArchitecture& arch, int tp) {
  return !(arch.name() == "NVL-36" && tp > 36);
}

Inputs make_inputs(std::uint64_t seed) {
  IHBD_TRACE_SPAN("bench.setup");
  Inputs in;
  Rng seeds(seed);
  for (int s = 0; s < kTraces; ++s) {
    fault::TraceGenConfig cfg;  // paper-calibrated, 8-GPU nodes, 348 days
    cfg.node_count = kNodes / 2;
    cfg.seed = seeds.next();
    Rng split(seeds.next());
    const double g0 = now_s();
    // Appendix A normalisation onto 4-GPU nodes.
    in.traces.push_back(fault::generate_trace(cfg).split_to_half_nodes(split));
    in.fault_gen_s += now_s() - g0;
  }
  return in;
}

/// Copies of the traces with empty timeline caches, so every repetition
/// folds the word-delta timelines as a first run does.
std::vector<fault::FaultTrace> fresh(const Inputs& in) {
  std::vector<fault::FaultTrace> out;
  for (const fault::FaultTrace& t : in.traces)
    out.emplace_back(t.node_count(), t.duration_days(), t.events());
  return out;
}

runtime::SweepSpec grid_spec(const Archs& archs) {
  runtime::SweepSpec spec;
  spec.trials = 1;  // replay is deterministic; the grid itself is the work
  spec.keep_samples = true;
  std::vector<std::string> names;
  for (const auto& a : archs) names.push_back(a->name());
  spec.axes = {runtime::Axis::of_values("TP", kTps),
               runtime::Axis::of_labels("Arch", std::move(names))};
  return spec;
}

std::string cell_bytes(const topo::TraceWasteResult& r) {
  serde::Writer w;
  topo::trace_waste_codec().save(w, r);
  return w.take();
}

/// What one repetition keeps of a replay cell: the full result is dropped
/// once digested, except for the one cell per trace the oracle re-checks.
struct CellRecord {
  double seconds = -1.0;  ///< host seconds; < 0: unsupported (not run)
  double speed = 1.0;     ///< its grid's probed speed
  bool threw = false;
  std::uint64_t digest = 0;
  std::size_t samples = 0;
  double mean_waste = 0.0;
};

struct Rep {
  double wall_s = 0.0;  ///< the grids only; digesting between them is untimed
  double cpu_s = 0.0;
  double net_s = 0.0;   ///< = wall_s (the probes run between grids)
  double ref_s = 0.0;   ///< summed over the grids at their probed speeds
  std::vector<std::vector<CellRecord>> cells;         ///< [trace][cell]
  std::vector<topo::TraceWasteResult> oracle_cells;  ///< [trace]
  std::uint64_t samples = 0;
  obs::MetricsSnapshot snap;
};

/// The grid cell of trace `s` that the oracle re-checks: rotating over the
/// supported cells so every architecture is covered.
std::size_t oracle_cell(const Archs& archs, std::size_t s) {
  std::vector<std::size_t> supported;
  for (std::size_t c = 0; c < kTps.size() * archs.size(); ++c)
    if (supports(*archs[c % archs.size()],
                 static_cast<int>(kTps[c / archs.size()])))
      supported.push_back(c);
  return supported[(s * 3) % supported.size()];
}

Rep replay_grids(const Archs& archs,
                 const std::vector<fault::FaultTrace>& traces,
                 runtime::ThreadPool& pool) {
  IHBD_TRACE_SPAN("bench.rep");
  const runtime::SweepSpec spec = grid_spec(archs);
  const std::size_t n_cells = spec.cell_count();
  Rep rep;
  const int threads = static_cast<int>(pool.size()) + 1;
  double probe_before = probe_parallel_s(threads, kGridProbe);
  for (std::size_t s = 0; s < traces.size(); ++s) {
    std::vector<CellRecord> rec(n_cells);
    const double t0 = now_s();
    const double c0 = cpu_s();
    auto grid = runtime::run_sweep_reduce(
        spec, topo::TraceWasteResult{},
        [&](const runtime::Scenario& sc, Rng&) -> topo::TraceWasteResult {
          IHBD_TRACE_SPAN("bench.replay_cell");
          const int tp = static_cast<int>(sc.value(0));
          const topo::HbdArchitecture& arch = *archs[sc.index(1)];
          if (!supports(arch, tp)) return {};
          topo::TraceReplayOptions opts;
          opts.step_days = kStepDays;
          opts.pool = &pool;
          // The grid saturates the pool, so one window per cell (the fig13
          // path's nested_window_samples choice).
          opts.window_samples = 0;
          opts.keep_samples = true;
          CellRecord& r = rec[sc.cell()];
          const double a = now_s();
          topo::TraceWasteResult out;
          try {
            out = topo::evaluate_waste_over_trace(arch, traces[s], tp, opts);
          } catch (const std::exception& e) {
            std::cerr << "replay cell threw: " << e.what() << "\n";
            r.threw = true;
          }
          r.seconds = now_s() - a;
          return out;
        },
        [](topo::TraceWasteResult& acc, topo::TraceWasteResult&& r) {
          acc = std::move(r);
        },
        0, &pool);
    const double wall = now_s() - t0;
    rep.wall_s += wall;
    rep.cpu_s += cpu_s() - c0;
    const double probe_after = probe_parallel_s(threads, kGridProbe);
    const double speed =
        speed_of(probe_before + probe_after, 2.0 * kGridProbe);
    probe_before = probe_after;
    rep.net_s += wall;
    rep.ref_s += wall * speed;
    for (std::size_t c = 0; c < n_cells; ++c) {
      const topo::TraceWasteResult& r = grid.cells[c];
      rec[c].digest = fnv1a(cell_bytes(r));
      rec[c].samples = r.waste_ratio.v.size();
      rec[c].mean_waste = r.waste_summary.mean;
      rec[c].speed = speed;
      rep.samples += rec[c].samples;
    }
    rep.oracle_cells.push_back(std::move(grid.cells[oracle_cell(archs, s)]));
    rep.cells.push_back(std::move(rec));
  }
  return rep;
}

void score_rep(Outcome& out, const Rep& rep,
               std::vector<std::vector<std::uint64_t>>& reference) {
  const bool first = reference.empty();
  if (first) reference.resize(rep.cells.size());
  std::vector<double> cell_ms;
  for (std::size_t s = 0; s < rep.cells.size(); ++s) {
    for (std::size_t c = 0; c < rep.cells[s].size(); ++c) {
      const CellRecord& r = rep.cells[s][c];
      if (first) reference[s].push_back(r.digest);
      if (r.seconds < 0.0) continue;  // unsupported cell
      bool ok = check(out, "cell_completed", !r.threw);
      ok &= check(out, "repeatable_across_repetitions",
                  r.digest == reference[s][c]);
      ++out.attempted;
      if (!ok) ++out.failed;
      cell_ms.push_back(r.seconds * 1e3 * r.speed);
    }
  }
  if (first) out.peak_rss_mb = peak_rss_mb();
  out.wall_s.push_back(rep.ref_s);
  out.host_wall_s.push_back(rep.net_s);
  out.host_cpu_s.push_back(rep.cpu_s);
  out.host_speed.push_back(rep.ref_s / rep.net_s);
  out.events_per_s.push_back(static_cast<double>(rep.samples) / rep.ref_s);
  out.tick_ms_p50.push_back(nearest_rank(cell_ms, 0.50));
  out.tick_ms_p90.push_back(nearest_rank(cell_ms, 0.90));
  out.tick_samples = cell_ms.size();
}

bool same_prefix(const TimeSeries& prefix, const TimeSeries& full) {
  const std::size_t n = prefix.v.size();
  const std::size_t bytes = n * sizeof(double);
  return n > 0 && prefix.t.size() == n && full.v.size() >= n &&
         full.t.size() >= n &&
         std::memcmp(prefix.t.data(), full.t.data(), bytes) == 0 &&
         std::memcmp(prefix.v.data(), full.v.data(), bytes) == 0;
}

/// One cell per trace re-run through the serial from-scratch oracle over
/// the trace's first kOracleDays (FaultTrace::slice keeps every mask in
/// that range exact); the fast path's series must match it bit for bit.
/// The oracle re-allocates at every hourly sample (~0.2-0.4 ms each at
/// 23,040 nodes), so the whole 348 days would cost about a minute per cell.
void check_oracle(Outcome& out, const Archs& archs, const Inputs& in,
                  const Rep& rep) {
  IHBD_TRACE_SPAN("bench.oracle");
  for (std::size_t s = 0; s < in.traces.size(); ++s) {
    const std::size_t c = oracle_cell(archs, s);
    const topo::TraceWasteResult oracle = topo::evaluate_waste_over_trace(
        *archs[c % archs.size()], in.traces[s].slice(0.0, kOracleDays),
        static_cast<int>(kTps[c / archs.size()]), kStepDays);
    const topo::TraceWasteResult& fast = rep.oracle_cells[s];
    const bool same = same_prefix(oracle.waste_ratio, fast.waste_ratio) &&
                      same_prefix(oracle.usable_gpus, fast.usable_gpus);
    check(out, "fast_replay_matches_serial_oracle", same);
    ++out.attempted;
    if (!same) ++out.failed;
  }
}

Json sim_stats(const Archs& archs, const Rep& rep) {
  Json j;
  j.count("replay_samples", rep.samples);
  std::uint64_t h = fnv1a("");
  for (const auto& trace_cells : rep.cells)
    for (const CellRecord& c : trace_cells) h = fnv1a(hex64(c.digest), h);
  const std::size_t tp32 = 2;  // kTps[2] == 32
  for (std::size_t a = 0; a < archs.size(); ++a) {
    double sum = 0.0;
    for (const auto& trace_cells : rep.cells)
      sum += trace_cells[tp32 * archs.size() + a].mean_waste;
    j.num("tp32_mean_waste." + metric_component(archs[a]->name()),
          sum / static_cast<double>(rep.cells.size()));
  }
  j.str("digest", hex64(h));
  return j;
}

void split_layers(Outcome& out, const Archs& archs, const Inputs& in,
                  const Rep& tr, double overhead_frac, double fault_gen_s,
                  runtime::ThreadPool& pool) {
  std::map<std::string, double>& L = out.layers;
  const obs::MetricsSnapshot& snap = tr.snap;

  L["runtime.pool_idle_frac"] = pool_idle_frac(snap, pool.size(), tr.wall_s);
  double chain_s = 0.0;  // the grids run one after another
  for (const auto& trace_cells : tr.cells) {
    double longest = 0.0;
    for (const CellRecord& c : trace_cells)
      longest = std::max(longest, c.seconds);
    chain_s += longest;
  }
  L["runtime.critical_path_frac"] = chain_s / tr.net_s;
  L["runtime.tasks_stolen"] =
      static_cast<double>(obs_counter(snap, "pool.tasks_stolen"));

  // Timeline sort and word-delta folds, timed on fresh traces; the topo
  // drive then replays the grids on those (now folded) traces, so cell
  // times carry no fold.
  std::vector<fault::FaultTrace> traces = fresh(in);
  double timeline_s = 0.0, fold_s = 0.0;
  std::uint64_t events = 0, transitions = 0;
  {
    IHBD_TRACE_SPAN("drive.fault_fold");
    for (const fault::FaultTrace& t : traces) {
      const double a = now_s();
      transitions += t.transition_timeline()->size();
      const double b = now_s();
      t.word_delta_timeline();
      t.word_delta_timeline(kStepDays);
      fold_s += now_s() - b;
      timeline_s += b - a;
      events += t.events().size();
    }
  }
  L["fault.gen_s"] = fault_gen_s;
  L["fault.trace_events"] = static_cast<double>(events);
  L["fault.transitions"] = static_cast<double>(transitions);
  L["fault.timeline_s"] = timeline_s;
  L["fault.word_fold_s"] = fold_s;

  Rep drive;
  {
    IHBD_TRACE_SPAN("drive.topo");
    drive = replay_grids(archs, traces, pool);
  }
  const std::size_t n_arch = archs.size();
  std::vector<double> arch_s(n_arch, 0.0), arch_samples(n_arch, 0.0);
  double replay_s = 0.0;
  for (const auto& trace_cells : drive.cells) {
    for (std::size_t c = 0; c < trace_cells.size(); ++c) {
      if (trace_cells[c].seconds < 0.0) continue;
      replay_s += trace_cells[c].seconds;
      arch_s[c % n_arch] += trace_cells[c].seconds;
      arch_samples[c % n_arch] += static_cast<double>(trace_cells[c].samples);
    }
  }
  L["topo.replay_s"] = replay_s;
  for (std::size_t a = 0; a < n_arch; ++a)
    L["topo.samples_per_s." + metric_component(archs[a]->name())] =
        arch_samples[a] / arch_s[a];
  L["topo.dirty_words"] =
      static_cast<double>(obs_counter(snap, "alloc.dirty_words"));
  L["topo.net_flips"] =
      static_cast<double>(obs_counter(snap, "replay.flips_applied"));
  L["obs.overhead_frac"] = overhead_frac;
}

}  // namespace

Outcome run_replay_mc(const RunOptions& opt) {
  Outcome out;
  std::vector<double> gen_s;
  Archs archs;
  const Inputs in = timed_setup(out, [&] {
    archs = topo::make_paper_architectures(kNodes, kGpusPerNode);
    Inputs made = make_inputs(opt.seed);
    gen_s.push_back(made.fault_gen_s);
    return made;
  });
  const runtime::PoolRef pool(opt.threads);

  std::vector<std::vector<std::uint64_t>> reference;  // first-rep digests
  Rep traced;
  const double overhead = spend_budget(
      opt, out,
      [&] {
        const Rep rep = replay_grids(archs, fresh(in), *pool);
        score_rep(out, rep, reference);
        if (out.wall_s.size() == 1) {
          out.sim = sim_stats(archs, rep);
          check_oracle(out, archs, in, rep);
        }
      },
      [&] {
        traced =
            observed([&] { return replay_grids(archs, fresh(in), *pool); });
        // Instrumentation may not perturb results.
        for (std::size_t s = 0; s < traced.cells.size(); ++s) {
          for (std::size_t c = 0; c < traced.cells[s].size(); ++c) {
            if (traced.cells[s][c].seconds < 0.0) continue;
            const bool same = traced.cells[s][c].digest == reference[s][c];
            check(out, "traced_equals_untraced", same);
            ++out.attempted;
            if (!same) ++out.failed;
          }
        }
        return traced.ref_s;
      });
  if (opt.trace) {
    split_layers(out, archs, in, traced, overhead, nearest_rank(gen_s, 0.5),
                 *pool);
    obs::set_trace_enabled(false);
  }
  return out;
}

}  // namespace perfbench
