#include "src/topo/waste.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>

#include "src/common/contracts.h"
#include "src/fault/transitions.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/thread_pool.h"
#include "src/topo/incremental.h"

namespace ihbd::topo {

namespace {

/// Replay metrics (src/obs): windows/samples replayed, fault flips applied,
/// merge cost, and the per-window throughput distribution. Recording is
/// skipped unless obs is enabled and never touches replay results
/// (byte-identical output on vs off).
struct ReplayObs {
  obs::Counter& windows;        ///< windows replayed
  obs::Counter& samples;        ///< samples replayed
  obs::Counter& flips_applied;  ///< net fault flips fed to allocators
  obs::Counter& merge_ns;       ///< fragment-merge wall time
  obs::Counter& evaluations;    ///< evaluate_waste_over_trace calls
  obs::Histogram& window_samples_per_s;  ///< per-window replay throughput
};

ReplayObs& replay_obs() {
  static ReplayObs o{obs::counter("replay.windows"),
                     obs::counter("replay.samples"),
                     obs::counter("replay.flips_applied"),
                     obs::counter("replay.merge_ns"),
                     obs::counter("replay.evaluations"),
                     obs::histogram("replay.window_samples_per_s")};
  return o;
}

std::uint64_t obs_elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

void append_series(TimeSeries& dst, TimeSeries&& src) {
  if (dst.t.empty()) {
    dst = std::move(src);
    return;
  }
  dst.t.insert(dst.t.end(), src.t.begin(), src.t.end());
  dst.v.insert(dst.v.end(), src.v.begin(), src.v.end());
}

}  // namespace

void TraceWindowFragment::merge_next(TraceWindowFragment&& next) {
  append_series(waste_ratio, std::move(next.waste_ratio));
  append_series(usable_gpus, std::move(next.usable_gpus));
  waste_acc.merge(next.waste_acc);
}

TraceWindowFragment replay_trace_window_incremental(
    const HbdArchitecture& arch, const fault::FaultTrace& trace,
    int tp_size_gpus, const std::vector<double>& days,
    const fault::SampleWindow& window, double step_days, bool keep_samples) {
  IHBD_EXPECTS(window.begin + window.count <= days.size());
  IHBD_TRACE_SPAN("replay_window");
  const bool obs_on = obs::enabled();
  const auto t0 = obs_on ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  std::uint64_t flips = 0;
  TraceWindowFragment frag;
  frag.waste_acc.set_keep_samples(keep_samples);
  frag.waste_ratio.t.reserve(window.count);
  frag.waste_ratio.v.reserve(window.count);
  frag.usable_gpus.t.reserve(window.count);
  frag.usable_gpus.v.reserve(window.count);
  // The replay samples strictly on the step grid, so the cursor binds to
  // the trace's grid word-delta timeline: at most one net group per sample,
  // built once per trace and step straight from the events and shared by
  // every window's cursor.
  fault::FaultMaskCursor cursor(trace, step_days);
  const auto allocator = make_incremental_allocator(arch, tp_size_gpus);
  // Per-word XOR spans from the cursor go straight into the allocator's
  // dirty-word path. A sample with no deltas cannot change the allocation,
  // so the previous aggregates are re-emitted without even the virtual
  // call — identical values either way.
  double waste = 0.0;
  double usable = 0.0;
  bool have_alloc = false;
  for (std::size_t i = window.begin; i < window.begin + window.count; ++i) {
    const double day = days[i];
    const std::vector<fault::WordDelta>& deltas = cursor.advance_to_words(day);
    if (!have_alloc || !deltas.empty()) {
      if (obs_on)
        for (const fault::WordDelta& d : deltas)
          flips += static_cast<std::uint64_t>(std::popcount(d.xor_bits));
      const Allocation& alloc =
          allocator->apply_words(cursor.mask(), deltas);
      waste = alloc.waste_ratio();
      usable = static_cast<double>(alloc.usable_gpus);
      have_alloc = true;
    }
    frag.waste_ratio.push(day, waste);
    frag.usable_gpus.push(day, usable);
    frag.waste_acc.add(waste);
  }
  if (obs_on) {
    ReplayObs& o = replay_obs();
    o.windows.add(1);
    o.samples.add(window.count);
    o.flips_applied.add(flips);
    const double secs = static_cast<double>(obs_elapsed_ns(t0)) * 1e-9;
    if (secs > 0.0)
      o.window_samples_per_s.observe(static_cast<double>(window.count) / secs);
  }
  return frag;
}

// The windowed replay is the same plan -> execute -> reduce shape as the
// sweep engine (src/runtime/sweep.h), one level down: plan the window
// partition, execute each window into a TraceWindowFragment, reduce the
// fragments in window order. The three named stages below keep that
// boundary explicit.
namespace {

/// Replay fan-out width: the pool's, else options.threads (0 = the shared
/// pool's default width).
int replay_workers(const TraceReplayOptions& options) {
  if (options.pool != nullptr) return options.pool->size();
  return options.threads == 0 ? runtime::ThreadPool::default_threads()
                              : options.threads;
}

/// Plan: partition the sample-day sequence into replay windows.
/// A single worker gains nothing from window splits; one window keeps one
/// cursor/allocator alive over the whole trace instead of fast-forwarding a
/// fresh one per window. Output is identical for any window size, so this
/// is purely a perf choice.
std::vector<fault::SampleWindow> plan_replay_windows(
    std::size_t sample_count, const TraceReplayOptions& options,
    int workers) {
  return fault::split_windows(sample_count,
                              workers == 1 ? 0 : options.window_samples);
}

/// Execute: replay every window into its fragment, fanning out on the pool.
/// The cursor walks the (shared, cached) word-delta timeline, so the full
/// trace is passed directly — no per-window slice needed.
std::vector<TraceWindowFragment> execute_replay_windows(
    const HbdArchitecture& arch, const fault::FaultTrace& trace,
    int tp_size_gpus, const std::vector<double>& days,
    const std::vector<fault::SampleWindow>& windows,
    const TraceReplayOptions& options, int workers) {
  std::vector<TraceWindowFragment> fragments(windows.size());
  const auto replay_one = [&](std::size_t w) {
    fragments[w] = replay_trace_window_incremental(
        arch, trace, tp_size_gpus, days, windows[w], options.step_days,
        options.keep_samples);
  };
  if (workers == 1 || windows.size() <= 1) {
    // Nothing to fan out: replay inline on the calling thread.
    for (std::size_t w = 0; w < windows.size(); ++w) replay_one(w);
  } else {
    // PoolRef resolves to options.pool when given — the nested-parallel
    // fast path: when the caller is itself a task on that pool (a sweep
    // cell), the work-stealing scheduler hands these windows to idle
    // workers and the blocked caller helps instead of sleeping.
    const runtime::PoolRef ref(options.threads, options.pool);
    ref->parallel_for(windows.size(), replay_one);
  }
  return fragments;
}

/// Reduce: merge fragments strictly in window order. The concatenated
/// series and the sample-retaining accumulator then match the serial
/// reference bit-for-bit regardless of thread count. (merge_next is
/// associative, so a tree grouping would also do; the in-order fold is the
/// canonical one.)
TraceWasteResult reduce_replay_fragments(
    std::vector<TraceWindowFragment> fragments) {
  TraceWasteResult out;
  if (fragments.empty()) return out;
  IHBD_TRACE_SPAN("replay_merge");
  const bool obs_on = obs::enabled();
  const auto merge_t0 = obs_on ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
  TraceWindowFragment merged = std::move(fragments.front());
  for (std::size_t w = 1; w < fragments.size(); ++w)
    merged.merge_next(std::move(fragments[w]));
  if (obs_on) replay_obs().merge_ns.add(obs_elapsed_ns(merge_t0));
  out.waste_ratio = std::move(merged.waste_ratio);
  out.usable_gpus = std::move(merged.usable_gpus);
  out.waste_summary = merged.waste_acc.summary();
  return out;
}

}  // namespace

TraceWasteResult evaluate_waste_over_trace(const HbdArchitecture& arch,
                                           const fault::FaultTrace& trace,
                                           int tp_size_gpus,
                                           const TraceReplayOptions& options) {
  IHBD_EXPECTS(trace.node_count() == arch.node_count());
  IHBD_EXPECTS(options.step_days > 0.0);
  IHBD_EXPECTS(options.threads >= 0);

  IHBD_TRACE_SPAN("replay_trace");
  replay_obs().evaluations.add(1);

  const int workers = replay_workers(options);
  const std::vector<double> days = trace.sample_days(options.step_days);
  const std::vector<fault::SampleWindow> windows =
      plan_replay_windows(days.size(), options, workers);
  std::vector<TraceWindowFragment> fragments = execute_replay_windows(
      arch, trace, tp_size_gpus, days, windows, options, workers);
  return reduce_replay_fragments(std::move(fragments));
}

const runtime::shard::ShardCodec<TraceWasteResult>& trace_waste_codec() {
  static const runtime::shard::ShardCodec<TraceWasteResult> codec{
      [](serde::Writer& w, const TraceWasteResult& r) {
        serde::write_time_series(w, r.waste_ratio);
        serde::write_time_series(w, r.usable_gpus);
        serde::write_summary(w, r.waste_summary);
      },
      [](serde::Reader& r) {
        TraceWasteResult out;
        out.waste_ratio = serde::read_time_series(r);
        out.usable_gpus = serde::read_time_series(r);
        out.waste_summary = serde::read_summary(r);
        return out;
      },
  };
  return codec;
}

TraceWasteResult evaluate_waste_over_trace(const HbdArchitecture& arch,
                                           const fault::FaultTrace& trace,
                                           int tp_size_gpus,
                                           double step_days) {
  IHBD_EXPECTS(trace.node_count() == arch.node_count());
  IHBD_EXPECTS(step_days > 0.0);
  TraceWasteResult out;
  for (double day = 0.0; day < trace.duration_days(); day += step_days) {
    const Allocation alloc = arch.allocate(trace.faulty_at(day), tp_size_gpus);
    out.waste_ratio.push(day, alloc.waste_ratio());
    out.usable_gpus.push(day, static_cast<double>(alloc.usable_gpus));
  }
  out.waste_summary = out.waste_ratio.summarize_values();
  return out;
}

int max_job_scale(const TimeSeries& usable_gpus, double quantile,
                  int tp_size_gpus) {
  IHBD_EXPECTS(quantile >= 0.0 && quantile <= 1.0);
  IHBD_EXPECTS(tp_size_gpus > 0);
  if (usable_gpus.v.empty()) return 0;
  // The job size supportable `quantile` of the time is the
  // (1 - quantile)-percentile of the usable series. The series holds
  // integer GPU counts, but linear interpolation (and the (1 - quantile)
  // rank itself) carries FP noise, so a mathematically integral result can
  // land at 959.999... — truncating that floors away an entire TP group.
  // Round within an epsilon before flooring.
  const double val =
      percentile(usable_gpus.v, (1.0 - quantile) * 100.0);
  const int gpus = static_cast<int>(std::floor(val + 1e-9));
  return (gpus / tp_size_gpus) * tp_size_gpus;
}

double fault_waiting_rate(const TimeSeries& usable_gpus,
                          double job_scale_gpus) {
  if (usable_gpus.v.empty()) return 0.0;
  std::size_t waiting = 0;
  for (double u : usable_gpus.v)
    if (u < job_scale_gpus) ++waiting;
  return static_cast<double>(waiting) /
         static_cast<double>(usable_gpus.v.size());
}

}  // namespace ihbd::topo
