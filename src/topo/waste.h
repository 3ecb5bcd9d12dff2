// Evaluation drivers for HBD fault resilience (paper §6.2): GPU waste ratio
// over a fault trace or fault-ratio sweep, maximum supported job scale, and
// job fault-waiting rate. Shared by Figs. 13-16 and 20-23 benches.
//
// Trace replay has exactly two paths:
//   * evaluate_waste_over_trace(arch, trace, tp, step_days) — the serial
//     oracle: one pass over the sample days, re-allocating from
//     trace.faulty_at() at each. Kept as the bit-equivalence reference.
//   * evaluate_waste_over_trace(arch, trace, tp, TraceReplayOptions) — the
//     fast path: one pass over trace.sample_days(step), inline on the
//     calling thread. It walks the trace's grid word-delta timeline
//     (FaultTrace::word_delta_timeline(step), at most one group per
//     sample) and hands each group's per-word XOR spans straight to a
//     topo::IncrementalAllocator, so samples with no transitions never
//     re-allocate and a KHopRing transition edits at most two adjacent
//     healthy arcs (see incremental.h). A replay grid gets its parallelism
//     one level up: the sweep engine runs its cells concurrently.
// Both produce bit-identical output: each builds its waste summary from its
// own waste-ratio series.
#pragma once

#include <cstddef>

#include "src/common/stats.h"
#include "src/fault/trace.h"
#include "src/topo/hbd.h"

namespace ihbd::runtime {
class ThreadPool;
}  // namespace ihbd::runtime

namespace ihbd::serde {
class Writer;
}  // namespace ihbd::serde

namespace ihbd::topo {

/// Result of replaying a fault trace against an architecture.
struct TraceWasteResult {
  TimeSeries waste_ratio;  ///< healthy-GPU waste ratio per sample time
  TimeSeries usable_gpus;  ///< GPUs inside placed TP groups per sample time
  Summary waste_summary;   ///< summary over waste_ratio.v
};

/// Bit-exact binary encoding of a TraceWasteResult: both series and the
/// summary. Its saved bytes are what replay result digests hash.
struct TraceWasteCodec {
  void save(serde::Writer& w, const TraceWasteResult& r) const;
};
const TraceWasteCodec& trace_waste_codec();

/// Options of the one-pass replay (inline on the calling thread).
/// `keep_samples`, `pool` and `window_samples` are ignored; they stay only
/// until the benchmark harness stops setting them.
struct TraceReplayOptions {
  double step_days = 1.0;
  bool keep_samples = true;             ///< ignored
  runtime::ThreadPool* pool = nullptr;  ///< ignored
  std::size_t window_samples = 0;       ///< ignored
};

/// One-pass replay of `trace` against `arch` with TP size `tp_size_gpus`;
/// see the header comment for the determinism contract.
TraceWasteResult evaluate_waste_over_trace(const HbdArchitecture& arch,
                                           const fault::FaultTrace& trace,
                                           int tp_size_gpus,
                                           const TraceReplayOptions& options);

/// Serial oracle replay, sampling every `step_days`. Kept as the
/// bit-equivalence reference for the one-pass replay (tests, perfbench's
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
