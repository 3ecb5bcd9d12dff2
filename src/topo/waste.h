// Evaluation drivers for HBD fault resilience (paper §6.2): GPU waste ratio
// over a fault trace or fault-ratio sweep, maximum supported job scale, and
// job fault-waiting rate. Shared by Figs. 13-16 and 20-23 benches.
//
// Trace replay has exactly two paths:
//   * evaluate_waste_over_trace(arch, trace, tp, step_days) — the serial
//     oracle: one pass over the sample days, re-allocating from
//     trace.faulty_at() at each. Kept as the bit-equivalence reference.
//   * evaluate_waste_over_trace(arch, trace, tp, TraceReplayOptions) — the
//     fast path: the sample-day sequence is split into windows
//     (fault::split_windows) replayed on ThreadPool workers. Each window
//     walks the trace's word-delta timeline with a fault::FaultMaskCursor
//     and patches a topo::IncrementalAllocator by per-word XOR spans, so
//     samples with no transitions never re-allocate and a KHopRing
//     transition edits at most two adjacent healthy arcs (see
//     incremental.h). The per-window Accumulator/TimeSeries fragments merge
//     in window order.
// Both produce bit-identical output for any thread count and window size
// (when keep_samples is true; with it off the fast path's summary degrades
// to moments).
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/stats.h"
#include "src/fault/trace.h"
#include "src/runtime/accumulate.h"
#include "src/runtime/shard.h"
#include "src/topo/hbd.h"

namespace ihbd::runtime {
class ThreadPool;
}  // namespace ihbd::runtime

namespace ihbd::topo {

/// Result of replaying a fault trace against an architecture.
struct TraceWasteResult {
  TimeSeries waste_ratio;  ///< healthy-GPU waste ratio per sample time
  TimeSeries usable_gpus;  ///< GPUs inside placed TP groups per sample time
  Summary waste_summary;   ///< summary over waste_ratio.v
};

/// ShardCodec for replay sweeps whose cells hold a TraceWasteResult (the
/// fig13/15/16/20 grids): bit-exact save/load of both series and the
/// summary, so the distributed reduce — pure placement — keeps the sharded
/// result byte-identical to the single-process one.
const runtime::shard::ShardCodec<TraceWasteResult>& trace_waste_codec();

/// Tuning knobs of the windowed parallel replay.
struct TraceReplayOptions {
  double step_days = 1.0;
  /// Replay fan-out width when no `pool` is given: 0 fans windows out on
  /// the process-wide runtime::ThreadPool::shared(); 1 replays inline on
  /// the calling thread; >1 uses a dedicated transient pool of that width.
  int threads = 0;
  /// Fan windows out on this pool instead (threads is then ignored, except
  /// that a 1-worker pool still replays inline). Pass the pool that is
  /// already running the enclosing sweep: the work-stealing scheduler lets
  /// the window fan-out of one sweep cell recruit idle sweep workers
  /// (nested parallelism) instead of serializing.
  runtime::ThreadPool* pool = nullptr;
  /// Samples per parallel window (0 = one window spanning the trace).
  std::size_t window_samples = 64;
  /// Retain per-sample values inside the merged waste summary so its
  /// percentiles are exact. false bounds memory to O(series) — the summary
  /// degrades to moments (percentile fields = mean), the series are kept.
  bool keep_samples = true;
};

/// One window's fragment of a trace replay. merge_next() appends the
/// fragment of the immediately following window; the operation is
/// associative, so fragments may be combined pairwise in any tree shape as
/// long as window order is preserved.
struct TraceWindowFragment {
  TimeSeries waste_ratio;
  TimeSeries usable_gpus;
  runtime::Accumulator waste_acc;

  void merge_next(TraceWindowFragment&& next);
};

/// Replay the samples days[window.begin .. window.begin+window.count) of
/// `trace`: advances a fault::FaultMaskCursor across the window's sample
/// days and feeds the word deltas to a topo::IncrementalAllocator. Normally
/// handed the FULL trace (the cursor fast-forwards to the window start over
/// the trace's shared cached timeline; no per-window slice is needed),
/// though a slice covering the window also works. `step_days` must be the
/// step that produced `days` (= trace.sample_days(step_days)): the cursor
/// binds to the trace's grid-folded word-delta timeline for that step.
TraceWindowFragment replay_trace_window_incremental(
    const HbdArchitecture& arch, const fault::FaultTrace& trace,
    int tp_size_gpus, const std::vector<double>& days,
    const fault::SampleWindow& window, double step_days,
    bool keep_samples = true);

/// Windowed parallel replay of `trace` against `arch` with TP size
/// `tp_size_gpus`; see the header comment for the determinism contract.
TraceWasteResult evaluate_waste_over_trace(const HbdArchitecture& arch,
                                           const fault::FaultTrace& trace,
                                           int tp_size_gpus,
                                           const TraceReplayOptions& options);

/// Serial oracle replay, sampling every `step_days`. Kept as the
/// bit-equivalence reference for the windowed replay (tests, perfbench's
/// correctness check) and for callers that want no thread machinery.
TraceWasteResult evaluate_waste_over_trace(const HbdArchitecture& arch,
                                           const fault::FaultTrace& trace,
                                           int tp_size_gpus,
                                           double step_days = 1.0);

/// Maximum job scale (GPUs) supportable a `quantile` fraction of the time,
/// e.g. quantile = 0.99 -> the job size that would have been placeable 99%
/// of the trace. Derived from a usable-GPUs series, rounded down to a
/// multiple of the TP size.
int max_job_scale(const TimeSeries& usable_gpus, double quantile,
                  int tp_size_gpus);

/// Fraction of sampled time where fewer than `job_scale_gpus` usable GPUs
/// were available (Fig. 16's fault-waiting rate).
double fault_waiting_rate(const TimeSeries& usable_gpus,
                          double job_scale_gpus);

}  // namespace ihbd::topo
