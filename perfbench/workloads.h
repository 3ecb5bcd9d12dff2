// The benchmark's workloads. Each one generates its inputs from the seed
// (timed as set-up), repeats its timed section until the run's time budget
// is spent, checks every output, and — in a traced run — splits the time
// across the library's layers by timing calls into each layer's public API
// with the workload's own inputs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/report.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;     ///< traced run: obs on, per-layer split
  std::string trace_out;  ///< Perfetto JSON path of a traced run
  /// Sweep pool workers: nproc - 1 (at most 3), because the calling thread
  /// runs cells too while it waits.
  int threads = 3;
};

/// Everything one run measured. Per-repetition samples feed the end-to-end
/// medians; `layers` holds the per-layer split of a traced run. Timings are
/// at the reference host speed (see probe_s in report.h) unless named host_.
struct Outcome {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> events_per_s;
  std::vector<double> tick_ms_p50;
  std::vector<double> tick_ms_p90;
  std::size_t tick_samples = 0;  ///< ticks behind each repetition's p90
  /// Peak RSS over set-up and the first repetition: later repetitions may
  /// run on other pool threads, whose malloc arenas would add retained
  /// memory that depends only on scheduling.
  double peak_rss_mb = 0.0;
  // Reported, not scored: what the host clocks read.
  std::vector<double> host_wall_s;  ///< timed section without the probes
  std::vector<double> host_cpu_s;   ///< user + sys CPU, probes included
  std::vector<double> host_speed;   ///< time-weighted probe speed

  std::uint64_t attempted = 0;  ///< ops: ctrl trials or replay cells
  std::uint64_t failed = 0;     ///< ops that threw or failed a check
  std::map<std::string, bool> checks;

  /// Per-layer split of a traced run, for the layers this workload
  /// exercises (run.py reports the others as 0).
  std::map<std::string, double> layers;
  Json sim;  ///< simulated statistics (reported, not scored)
};

/// Record one evaluation of a named output check (a name holds only while
/// every evaluation passes) and return `ok`. Callers count failed ops.
bool check(Outcome& out, const std::string& name, bool ok);

/// Generate a workload's inputs several times (at least three, and until
/// 0.5 s have been spent, at most 50) between two host-speed probes,
/// recording each duration at the reference speed in out.setup_s; returns
/// the last set.
template <typename Make>
auto timed_setup(Outcome& out, Make&& make) {
  double spent = 0.0;
  for (;;) {
    const double p0 = probe_s();
    const double t0 = now_s();
    auto made = make();
    const double dt = now_s() - t0;
    const double p1 = probe_s();
    out.setup_s.push_back(dt * speed_of(p0 + p1, 2.0));
    spent += dt;
    const std::size_t n = out.setup_s.size();
    if (n >= 50 || (n >= 3 && spent >= 0.5)) return made;
  }
}

/// Spend the run's budget. Untraced: repeat `untraced()` (which appends to
/// out.wall_s) until one more repetition would overrun opt.seconds. Traced:
/// alternate it with `traced()` (returning its reference-speed wall) over
/// half the budget — the layer drives take the rest — and return the
/// traced run's obs overhead, median traced wall / median untraced wall - 1.
template <typename Untraced, typename Traced>
double spend_budget(const RunOptions& opt, Outcome& out, Untraced&& untraced,
                    Traced&& traced) {
  const double start = now_s();
  double last = 0.0;  // host seconds of the last repetition (or pair)
  if (!opt.trace) {
    do {
      const double a = now_s();
      untraced();
      last = now_s() - a;
    } while (now_s() - start + last <= opt.seconds);
    return 0.0;
  }
  std::vector<double> traced_wall;
  do {
    const double a = now_s();
    untraced();
    traced_wall.push_back(traced());
    last = now_s() - a;
  } while (now_s() - start + last <= 0.5 * opt.seconds);
  return nearest_rank(traced_wall, 0.5) / nearest_rank(out.wall_s, 0.5) - 1.0;
}

/// Run one repetition with obs metrics and spans on (spans stay on for the
/// layer drives that follow); the result carries the metric snapshot.
template <typename RepFn>
auto observed(RepFn&& rep) {
  ihbd::obs::reset();
  ihbd::obs::set_enabled(true);
  ihbd::obs::set_trace_enabled(true);
  auto r = rep();
  r.snap = ihbd::obs::snapshot();
  ihbd::obs::set_enabled(false);
  return r;
}

inline std::uint64_t obs_counter(const ihbd::obs::MetricsSnapshot& s,
                                 const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// Share of a traced repetition's thread capacity not spent in sweep cell
/// bodies (sweep.cell_ns, which includes the probes run in them). Capacity counts the pool's workers plus the
/// calling thread, which runs cells too while it waits.
inline double pool_idle_frac(const ihbd::obs::MetricsSnapshot& snap,
                             int workers, double wall_s) {
  const double busy_s =
      static_cast<double>(obs_counter(snap, "sweep.cell_ns")) * 1e-9;
  return std::max(0.0, 1.0 - busy_s / (static_cast<double>(workers + 1) *
                                       wall_s));
}

Outcome run_ctrl_steady(const RunOptions& opt);
Outcome run_ctrl_storm(const RunOptions& opt);
Outcome run_replay_mc(const RunOptions& opt);

}  // namespace perfbench
