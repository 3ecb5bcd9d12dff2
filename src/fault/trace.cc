#include "src/fault/trace.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>

#include "src/common/contracts.h"
#include "src/common/error.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ihbd::fault {

namespace {

/// Folds batches of +-1 node edges into net word-XOR groups: the step both
/// timeline folds share. A node is faulty while its active-interval count
/// is positive. Each edge that moves a count across zero toggles the node's
/// bit, so within a batch the toggles XOR to exactly the node's net change,
/// whatever the order of the edges.
class GroupFolder {
 public:
  explicit GroupFolder(int node_count)
      : active_(static_cast<std::size_t>(node_count), 0),
        word_xor_(word_count(node_count), 0),
        dirty_(word_count(static_cast<int>(word_xor_.size())), 0) {}

  /// Adds one edge to the open batch: a fault interval of `node` starts
  /// (`down`) or ends.
  void edge(int node, bool down) {
    int& active = active_[static_cast<std::size_t>(node)];
    const bool was_faulty = active > 0;
    active += down ? 1 : -1;
    if (was_faulty == (active > 0)) return;
    const int w = node / PackedMask::kWordBits;
    word_xor_[static_cast<std::size_t>(w)] ^= std::uint64_t{1}
                                              << (node % PackedMask::kWordBits);
    dirty_[static_cast<std::size_t>(w / PackedMask::kWordBits)] |=
        std::uint64_t{1} << (w % PackedMask::kWordBits);
    lo_ = std::min(lo_, w);
    hi_ = std::max(hi_, w);
  }

  /// Closes the batch: appends its net bit changes to `out` as one group
  /// stamped `day` (words ascending, every XOR nonzero), or nothing when
  /// all of its edges cancelled.
  void emit(double day, WordDeltaTimeline& out) {
    if (hi_ < 0) return;
    const std::size_t first = out.deltas.size();
    for (int b = lo_ / PackedMask::kWordBits; b <= hi_ / PackedMask::kWordBits;
         ++b) {
      for_each_set_bit(std::exchange(dirty_[static_cast<std::size_t>(b)], 0),
                       b, [&](int w) {
                         const std::uint64_t bits = std::exchange(
                             word_xor_[static_cast<std::size_t>(w)], 0);
                         if (bits != 0) out.deltas.push_back({w, bits});
                       });
    }
    lo_ = std::numeric_limits<int>::max();
    hi_ = -1;
    if (out.deltas.size() == first) return;
    out.days.push_back(day);
    out.offsets.push_back(static_cast<int>(out.deltas.size()));
  }

 private:
  static std::size_t word_count(int bits) {
    return static_cast<std::size_t>((bits + PackedMask::kWordBits - 1) /
                                    PackedMask::kWordBits);
  }

  std::vector<int> active_;              // open intervals per node
  std::vector<std::uint64_t> word_xor_;  // the open batch's toggles
  std::vector<std::uint64_t> dirty_;     // bit w: word_xor_[w] was toggled
  int lo_ = std::numeric_limits<int>::max();  // dirty word range
  int hi_ = -1;
};

// Comparators are lambdas, not functions: std::sort inlines a lambda's
// call, while a function pointer costs an indirect call per comparison.
constexpr auto transition_less = [](const FaultTransition& a,
                                    const FaultTransition& b) {
  return std::tie(a.day, a.node, a.down) < std::tie(b.day, b.node, b.down);
};

obs::Counter& grid_timeline_builds() {
  static obs::Counter& c = obs::counter("fault.grid_timeline_builds");
  return c;
}

/// The grid timeline of `events` (sorted by start day) on the sample days
/// `grid` of `step_days`, built straight from the events: a sample day's
/// group nets every edge visible at it (day <= grid[k]) but not at the
/// sample before. Down edges arrive in start order already; up edges are
/// counting-sorted by the sample they first show at. Edges past the last
/// sample are never visible on the grid and are dropped.
WordDeltaTimeline fold_onto_grid(const std::vector<FaultEvent>& events,
                                 int node_count,
                                 const std::vector<double>& grid,
                                 double step_days) {
  IHBD_TRACE_SPAN("fault.grid_timeline");
  grid_timeline_builds().add(1);
  const std::size_t samples = grid.size();
  // bucket[i]: the first sample at which event i's end is visible, or
  // `samples` past the grid. ceil(day / step) is within an index or so of
  // it (grid days are accumulated sums); the two walks make it exact.
  std::vector<int> bucket(events.size());
  std::vector<int> first(samples + 1, 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const double day = events[i].end_day;
    const double guess = std::ceil(day / step_days);
    std::size_t k = !(guess > 0.0) ? 0
                    : guess >= static_cast<double>(samples)
                        ? samples
                        : static_cast<std::size_t>(guess);
    while (k > 0 && grid[k - 1] >= day) --k;
    while (k < samples && grid[k] < day) ++k;
    bucket[i] = static_cast<int>(k);
    if (k < samples) ++first[k + 1];
  }
  for (std::size_t k = 0; k < samples; ++k) first[k + 1] += first[k];
  std::vector<int> up_nodes(static_cast<std::size_t>(first[samples]));
  std::vector<int> fill(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto k = static_cast<std::size_t>(bucket[i]);
    if (k < samples)
      up_nodes[static_cast<std::size_t>(fill[k]++)] = events[i].node;
  }

  WordDeltaTimeline out;
  out.offsets.push_back(0);
  GroupFolder fold(node_count);
  std::size_t next = 0;  // first event whose start is not yet applied
  for (std::size_t k = 0; k < samples; ++k) {
    for (; next < events.size() && events[next].start_day <= grid[k]; ++next)
      fold.edge(events[next].node, /*down=*/true);
    for (int i = first[k]; i < first[k + 1]; ++i)
      fold.edge(up_nodes[static_cast<std::size_t>(i)], /*down=*/false);
    fold.emit(grid[k], out);
  }
  return out;
}

constexpr auto event_less = [](const FaultEvent& a, const FaultEvent& b) {
  return std::tie(a.start_day, a.node, a.end_day) <
         std::tie(b.start_day, b.node, b.end_day);
};

/// Puts `events` in event_less order; `lo` and `hi` are the least and the
/// greatest start day. A counting sort on start day into one bucket per
/// event, then event_less inside each bucket holding more than one: the
/// bucket index is monotone in the start day, and ties on start day (an
/// incident's nodes) share a bucket. Linear for spread-out start days.
/// Degenerate spans send every event to bucket 0 (equal starts: scale 0;
/// a span that overflows to inf: scale 0, and inf * 0 is NaN) or split
/// them between buckets 0 and n - 1 (a subnormal span, where the scale
/// can be inf), so event_less over one bucket orders them in O(n log n).
void order_events(std::vector<FaultEvent>& events, double lo, double hi) {
  const std::size_t n = events.size();
  const double span = hi - lo;
  const double scale = span > 0.0 ? static_cast<double>(n) / span : 0.0;
  // Clamped before the cast: rounding can carry the greatest start to n,
  // and NaN goes to bucket 0. -0.0 and +0.0 give one difference from lo,
  // so they share a bucket.
  const auto bucket_of = [&](double day) -> std::size_t {
    const double b = std::floor((day - lo) * scale);
    if (!(b > 0.0)) return 0;
    return b < static_cast<double>(n) ? static_cast<std::size_t>(b) : n - 1;
  };
  // end[b + 1] counts bucket b, then holds where it starts; the scatter
  // advances end[b] to where bucket b ends.
  std::vector<std::size_t> end(n + 1, 0);
  for (const FaultEvent& e : events) ++end[bucket_of(e.start_day) + 1];
  for (std::size_t b = 0; b < n; ++b) end[b + 1] += end[b];
  std::vector<FaultEvent> out(n);
  for (const FaultEvent& e : events) out[end[bucket_of(e.start_day)]++] = e;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const auto first = out.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = out.begin() + static_cast<std::ptrdiff_t>(end[b]);
    if (last - first > 1) std::sort(first, last, event_less);
    begin = end[b];
  }
  events.swap(out);
}

}  // namespace

struct FaultTrace::TimelineCache {
  std::once_flag once;
  std::shared_ptr<const std::vector<FaultTransition>> edges;
  std::once_flag words_once;
  std::shared_ptr<const WordDeltaTimeline> words;
  // Grid timelines, one per distinct sample step, each built exactly once.
  // Replays use a handful of steps at most, so a flat list beats a map.
  struct Grid {
    double step_days = 0.0;
    std::once_flag once;
    std::shared_ptr<const WordDeltaTimeline> words;
  };
  std::mutex grids_mutex;
  std::vector<std::unique_ptr<Grid>> grids;
};

FaultTrace::FaultTrace(int node_count, double duration_days,
                       std::vector<FaultEvent> events)
    : node_count_(node_count), duration_days_(duration_days),
      events_(std::move(events)),
      timeline_cache_(std::make_shared<TimelineCache>()) {
  if (node_count <= 0) throw ConfigError("node_count must be positive");
  if (!(duration_days > 0.0) || !std::isfinite(duration_days))
    throw ConfigError("duration must be positive and finite");
  // One pass validates, finds the start-day range and checks the order.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  bool ordered = true;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    const auto where = [i] { return " (event " + std::to_string(i) + ")"; };
    if (e.node < 0 || e.node >= node_count)
      throw ConfigError("fault event node out of range" + where());
    if (!std::isfinite(e.start_day))
      throw ConfigError("fault event start_day is not finite" + where());
    if (!std::isfinite(e.end_day))
      throw ConfigError("fault event end_day is not finite" + where());
    if (e.end_day < e.start_day)
      throw ConfigError("fault event ends early" + where());
    lo = std::min(lo, e.start_day);
    hi = std::max(hi, e.start_day);
    if (i > 0 && event_less(e, events_[i - 1])) ordered = false;
  }
  // Deterministic total order (ties broken by node, then end): keeps
  // save/load round-trips and repeated runs bit-stable. Traces derived from
  // another trace or loaded from a saved one arrive in this order already.
  if (!ordered) order_events(events_, lo, hi);
}

PackedMask FaultTrace::faulty_at(double day) const {
  PackedMask mask(node_count_);
  // events_ sorted by start_day: stop scanning once start > day.
  for (const auto& e : events_) {
    if (e.start_day > day) break;
    if (day < e.end_day) mask.set(e.node, true);
  }
  return mask;
}

int FaultTrace::faulty_count_at(double day) const {
  return faulty_at(day).popcount();
}

std::vector<double> FaultTrace::sample_days(double step_days) const {
  IHBD_EXPECTS(step_days > 0.0);
  std::vector<double> days;
  // Repeated addition (not i * step) on purpose: this must reproduce the
  // serial replay loop's floating-point day sequence bit-for-bit.
  for (double day = 0.0; day < duration_days_; day += step_days)
    days.push_back(day);
  return days;
}

FaultTrace FaultTrace::slice(double start_day, double end_day) const {
  IHBD_EXPECTS(start_day <= end_day);
  std::vector<FaultEvent> overlapping;
  for (const auto& e : events_) {
    if (e.start_day > end_day) break;  // events_ sorted by start_day
    if (e.end_day > start_day) overlapping.push_back(e);
  }
  // Clamp the slice's duration to just past end_day (nextafter keeps
  // end_day itself inside `day < duration` sample loops and stays positive
  // even for end_day == 0), so sample_days()/ratio_series() on a slice stop
  // at the slice boundary instead of running over the full trace range.
  const double sliced_duration =
      std::min(duration_days_,
               std::nextafter(end_day, std::numeric_limits<double>::infinity()));
  return FaultTrace(node_count_, sliced_duration, std::move(overlapping));
}

std::shared_ptr<const std::vector<FaultTransition>>
FaultTrace::transition_timeline() const {
  std::call_once(timeline_cache_->once, [&] {
    auto edges = std::make_shared<std::vector<FaultTransition>>();
    edges->reserve(events_.size() * 2);
    for (const auto& e : events_) {
      edges->push_back({e.start_day, e.node, /*down=*/true});
      edges->push_back({e.end_day, e.node, /*down=*/false});
    }
    // Deterministic total order. Ties within one day may be applied in any
    // order (active-interval counts are order-independent); the sort only
    // keeps repeated runs bit-stable.
    std::sort(edges->begin(), edges->end(), transition_less);
    timeline_cache_->edges = std::move(edges);
  });
  return timeline_cache_->edges;
}

std::shared_ptr<const WordDeltaTimeline> FaultTrace::word_delta_timeline()
    const {
  std::call_once(timeline_cache_->words_once, [&] {
    auto out = std::make_shared<WordDeltaTimeline>();
    out->offsets.push_back(0);
    GroupFolder fold(node_count_);
    // One group per exact day of the (day-sorted) transitions.
    const std::vector<FaultTransition>& edges = *transition_timeline();
    std::size_t i = 0;
    while (i < edges.size()) {
      const double day = edges[i].day;
      do fold.edge(edges[i].node, edges[i].down);
      while (++i < edges.size() && edges[i].day == day);
      fold.emit(day, *out);
    }
    timeline_cache_->words = std::move(out);
  });
  return timeline_cache_->words;
}

std::shared_ptr<const WordDeltaTimeline> FaultTrace::word_delta_timeline(
    double step_days) const {
  IHBD_EXPECTS(step_days > 0.0);
  TimelineCache::Grid* grid = nullptr;
  {
    std::lock_guard<std::mutex> lock(timeline_cache_->grids_mutex);
    for (const auto& g : timeline_cache_->grids)
      if (g->step_days == step_days) grid = g.get();
    if (grid == nullptr) {
      timeline_cache_->grids.push_back(std::make_unique<TimelineCache::Grid>());
      grid = timeline_cache_->grids.back().get();
      grid->step_days = step_days;
    }
  }
  // Concurrent callers for one step wait here for the single build.
  std::call_once(grid->once, [&] {
    grid->words = std::make_shared<const WordDeltaTimeline>(fold_onto_grid(
        events_, node_count_, sample_days(step_days), step_days));
  });
  return grid->words;
}

TimeSeries FaultTrace::ratio_series(double step_days) const {
  TimeSeries ts;
  for (double day : sample_days(step_days)) {
    ts.push(day, static_cast<double>(faulty_count_at(day)) /
                     static_cast<double>(node_count_));
  }
  return ts;
}

Summary FaultTrace::ratio_summary(double step_days) const {
  return ratio_series(step_days).summarize_values();
}

double FaultTrace::mean_repair_days() const {
  if (events_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& e : events_) total += e.duration();
  return total / static_cast<double>(events_.size());
}

FaultTrace FaultTrace::split_to_half_nodes(Rng& rng,
                                           double inherit_prob) const {
  IHBD_EXPECTS(inherit_prob >= 0.0 && inherit_prob <= 1.0);
  std::vector<FaultEvent> out;
  out.reserve(events_.size());
  for (const auto& e : events_) {
    for (int half = 0; half < 2; ++half) {
      if (rng.bernoulli(inherit_prob)) {
        out.push_back(FaultEvent{e.node * 2 + half, e.start_day, e.end_day});
      }
    }
  }
  return FaultTrace(node_count_ * 2, duration_days_, std::move(out));
}

FaultTrace FaultTrace::remap_nodes(int new_node_count) const {
  if (new_node_count <= 0 || new_node_count > node_count_)
    throw ConfigError("remap_nodes: target must be in (0, node_count]");
  std::vector<FaultEvent> out;
  out.reserve(events_.size());
  for (const auto& e : events_) {
    // Linear map; events landing beyond the smaller cluster are dropped
    // proportionally (keeps the per-node fault statistics unchanged).
    if (e.node < new_node_count)
      out.push_back(e);
  }
  return FaultTrace(new_node_count, duration_days_, std::move(out));
}

PackedMask sample_fault_mask(int node_count, double ratio, Rng& rng) {
  IHBD_EXPECTS(node_count > 0);
  IHBD_EXPECTS(ratio >= 0.0 && ratio <= 1.0);
  const int want = static_cast<int>(
      std::lround(ratio * static_cast<double>(node_count)));
  std::vector<int> ids(static_cast<std::size_t>(node_count));
  for (int i = 0; i < node_count; ++i) ids[static_cast<std::size_t>(i)] = i;
  rng.shuffle(ids);
  PackedMask mask(node_count);
  for (int i = 0; i < want; ++i)
    mask.set(ids[static_cast<std::size_t>(i)], true);
  return mask;
}

PackedMask sample_fault_mask_iid(int node_count, double ratio, Rng& rng) {
  IHBD_EXPECTS(node_count > 0);
  IHBD_EXPECTS(ratio >= 0.0 && ratio <= 1.0);
  PackedMask mask(node_count);
  for (int i = 0; i < node_count; ++i) mask.set(i, rng.bernoulli(ratio));
  return mask;
}

}  // namespace ihbd::fault
