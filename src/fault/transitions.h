// Event-driven fault-mask replay (the fast path of the trace replay, see
// src/topo/waste.h).
//
// FaultTrace::faulty_at(day) rebuilds the whole mask by scanning events at
// every sample; between two consecutive sample days, though, only the
// handful of nodes with a transition in that interval actually change. The
// FaultMaskCursor consumes the trace's pre-folded WordDeltaTimeline
// (per-day net word-XOR groups, cached once per trace), so advancing a
// sample step is a few word XORs — no per-node work at all — and reports
// exactly what flipped as {word_index, xor_bits} spans. The mask it
// exposes is bit-identical to faulty_at() at every day.
#pragma once

#include <cstddef>
#include <vector>

#include "src/fault/packed_mask.h"
#include "src/fault/trace.h"

namespace ihbd::fault {

/// Forward-only cursor over a trace's transitions.
///
/// advance_to_words() applies every transition with `transition.day <= day`
/// and reports the net effect since the previous position — deduplicated
/// and net of cancelling transitions, so a zero-length event or a same-day
/// down+up pair reports nothing. mask() equals trace.faulty_at(day)
/// bit-for-bit, including on overlapping events and on FaultTrace::slice
/// sub-traces (within the sliced day range).
///
/// Contract: the cursor is forward-only. `day` must be monotonically
/// non-decreasing across advance calls (NaN is rejected too); a smaller day
/// would skip already-applied transitions and silently misapply the
/// timeline, so it aborts via IHBD_EXPECTS instead. Rewinding means
/// constructing a fresh cursor.
class FaultMaskCursor {
 public:
  /// Exact-day cursor: binds to trace.word_delta_timeline(), so cursors over
  /// the same trace share one word-delta fold, and any non-decreasing
  /// sequence of days may be visited.
  explicit FaultMaskCursor(const FaultTrace& trace);

  /// Grid-aligned cursor: binds to trace.word_delta_timeline(grid_step_days),
  /// which holds one net group per sample day, built once per trace x step
  /// straight from the events — each replay sample then applies at most one
  /// group. Contract: every advance must land on a day of
  /// trace.sample_days(grid_step_days); between grid points the mask would
  /// lag transitions already visible to faulty_at(). The trace replay in
  /// src/topo/waste.cc samples strictly on that grid, which is the
  /// intended user.
  FaultMaskCursor(const FaultTrace& trace, double grid_step_days);

  /// Advance to `day` (must be >= the previous call's day). Returns the
  /// net flips folded into per-word XOR spans: word indices strictly
  /// ascending, every xor_bits nonzero. Valid until the next advance call.
  const std::vector<WordDelta>& advance_to_words(double day);

  /// Current fault mask; equals trace.faulty_at(day()) after an advance.
  const PackedMask& mask() const { return mask_; }

  /// The day of the last advance (-inf before the first call).
  double day() const { return day_; }

 private:
  FaultMaskCursor(const FaultTrace& trace,
                  std::shared_ptr<const WordDeltaTimeline> words);

  std::shared_ptr<const WordDeltaTimeline> words_;
  std::size_t gnext_ = 0;            // first unapplied delta group
  PackedMask mask_;                  // current mask
  std::vector<WordDelta> deltas_;    // result buffer for advance_to_words
  std::vector<std::uint64_t> word_xor_;  // scratch: per-word XOR accumulator
  std::vector<int> dirty_words_;     // scratch: words hit in current batch
  std::vector<char> word_stamp_;     // scratch: membership for dirty_words_
  double day_;
};

}  // namespace ihbd::fault
