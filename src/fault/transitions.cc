#include "src/fault/transitions.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/common/contracts.h"
#include "src/obs/metrics.h"

namespace ihbd::fault {

namespace {

/// Word-batch metrics (src/obs): how well same-day transition groups fold
/// into word deltas. Recording sits behind obs::enabled() so the cursor's
/// hot path is unperturbed by default.
struct CursorObs {
  obs::Counter& word_batches;  ///< WordDeltas emitted by advance_to_words
  obs::Counter& xor_flips;     ///< net bit flips carried in those deltas
};

CursorObs& cursor_obs() {
  static CursorObs o{obs::counter("cursor.word_batches"),
                     obs::counter("cursor.xor_flips")};
  return o;
}

}  // namespace

FaultMaskCursor::FaultMaskCursor(const FaultTrace& trace)
    : FaultMaskCursor(trace, trace.word_delta_timeline()) {}

FaultMaskCursor::FaultMaskCursor(const FaultTrace& trace,
                                 double grid_step_days)
    : FaultMaskCursor(trace, trace.word_delta_timeline(grid_step_days)) {}

FaultMaskCursor::FaultMaskCursor(
    const FaultTrace& trace, std::shared_ptr<const WordDeltaTimeline> words)
    : words_(std::move(words)),
      mask_(trace.node_count()),
      word_xor_(static_cast<std::size_t>(mask_.word_count()), 0),
      word_stamp_(static_cast<std::size_t>(mask_.word_count()), 0),
      day_(-std::numeric_limits<double>::infinity()) {}

const std::vector<WordDelta>& FaultMaskCursor::advance_to_words(double day) {
  // Forward-only: a smaller (or NaN) day would leave already-applied
  // transitions in place and silently misapply the timeline.
  IHBD_EXPECTS(day >= day_);
  const WordDeltaTimeline& words = *words_;
  const std::size_t groups = words.days.size();
  day_ = day;
  deltas_.clear();
  if (gnext_ >= groups || words.days[gnext_] > day) return deltas_;
  const std::size_t first = gnext_;
  do
    ++gnext_;
  while (gnext_ < groups && words.days[gnext_] <= day);
  if (gnext_ - first == 1) {
    // Single group: its spans are already net, nonzero and word-ascending —
    // apply and emit them straight from the shared timeline.
    for (int i = words.offsets[first]; i < words.offsets[first + 1]; ++i) {
      const WordDelta& d = words.deltas[static_cast<std::size_t>(i)];
      mask_.apply_xor(d.word, d.xor_bits);
      deltas_.push_back(d);
    }
  } else {
    // Several days fold into one sample step: XOR the groups together (a
    // node flipping down then back up within the step cancels out).
    for (std::size_t g = first; g < gnext_; ++g) {
      for (int i = words.offsets[g]; i < words.offsets[g + 1]; ++i) {
        const WordDelta& d = words.deltas[static_cast<std::size_t>(i)];
        const auto w = static_cast<std::size_t>(d.word);
        if (!word_stamp_[w]) {
          word_stamp_[w] = 1;
          word_xor_[w] = 0;
          dirty_words_.push_back(d.word);
        }
        word_xor_[w] ^= d.xor_bits;
      }
    }
    std::sort(dirty_words_.begin(), dirty_words_.end());
    for (const int w : dirty_words_) {
      word_stamp_[static_cast<std::size_t>(w)] = 0;
      const std::uint64_t bits = word_xor_[static_cast<std::size_t>(w)];
      if (bits == 0) continue;  // cross-day cancellation emptied the word
      mask_.apply_xor(w, bits);
      deltas_.push_back({w, bits});
    }
    dirty_words_.clear();
  }
  if (obs::enabled()) {
    std::uint64_t flips = 0;
    for (const WordDelta& d : deltas_)
      flips += static_cast<std::uint64_t>(std::popcount(d.xor_bits));
    CursorObs& o = cursor_obs();
    o.word_batches.add(deltas_.size());
    o.xor_flips.add(flips);
  }
  return deltas_;
}

}  // namespace ihbd::fault
