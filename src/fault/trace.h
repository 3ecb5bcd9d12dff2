// Fault traces (paper Appendix A).
//
// The paper's evaluation replays a production fault trace from a ~3K-GPU
// cluster of 8-GPU nodes over 348 days: mean faulty-node ratio 2.33%,
// p50 1.67%, p99 7.22%. The trace itself is not bundled here, so
// generator.h synthesizes a trace calibrated to those statistics; this
// header defines the trace representation, replay and the paper's exact
// 8-GPU -> 4-GPU Bayes normalization.
#pragma once

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/fault/packed_mask.h"

namespace ihbd::fault {

/// One node-fault interval: node `node` is down in [start_day, end_day).
///
/// Intervals on one node may OVERLAP or NEST — independent failure causes
/// coexist (a storm outage can land on a node already down with a
/// degradation fault, and the storm's crew-queued repair can outlast or end
/// inside the degradation repair). The node is faulty at day d while AT
/// LEAST ONE of its intervals covers d; symmetrically, one interval ending
/// does not mean the node is up. Consumers therefore count active intervals
/// per node (depth) and treat only 0 <-> 1 edges as state changes — that is
/// exactly what faulty_at(), the word-delta timelines and the control
/// plane's per-node depth counters do, and tests/ctrl_test.cc pins their
/// agreement.
struct FaultEvent {
  int node = 0;
  double start_day = 0.0;
  double end_day = 0.0;

  double duration() const { return end_day - start_day; }
};

/// One edge of a trace's transition timeline: at `day`, `node` either goes
/// down (a fault interval starts) or comes back up (it ends). Derived from
/// FaultEvent half-open intervals, so a down edge takes effect at any
/// sample day >= `day` and an up edge at any sample day >= `day` as well
/// (matching `start_day <= d` / `end_day <= d` in faulty_at exactly).
struct FaultTransition {
  double day = 0.0;
  int node = 0;
  bool down = false;  ///< true: fault begins; false: repair completes
};

/// A word-parallel fault timeline: net mask changes pre-folded into
/// per-word XOR spans. Group g covers deltas[offsets[g] .. offsets[g+1])
/// and XORs into the faulty mask the net flips that become visible at
/// days[g] (cancelling and overlap-shadowed edges already removed; days
/// whose edges all cancel are omitted entirely). Groups compose by XOR:
/// XORing every group with days[g] <= d into an empty mask gives
/// faulty_at(d) — on every day for the exact timeline, on the sample days
/// for a grid timeline. The one-pass replay (src/topo/waste.h) walks a grid
/// timeline and hands each group's spans straight to its allocator.
struct WordDeltaTimeline {
  std::vector<double> days;       ///< ascending, unique, zero-net days omitted
  std::vector<int> offsets;       ///< days.size() + 1 span bounds into deltas
  std::vector<WordDelta> deltas;  ///< word-ascending, nonzero, per group
};

/// An immutable fault trace over a fixed node count and duration.
class FaultTrace {
 public:
  /// Throws ConfigError naming the event index when an event's node is out
  /// of range, a day is NaN or infinite, or it ends before it starts.
  /// Holds the events in (start_day, node, end_day) order, whatever their
  /// input order. Input already in that order is only checked; otherwise
  /// a counting sort on start day orders it in expected linear time. Ties
  /// in one bucket are sorted, so the worst case (all starts equal, or a
  /// start-day span that overflows to inf or is subnormal, which put the
  /// events into one or two buckets) is O(n log n).
  FaultTrace(int node_count, double duration_days,
             std::vector<FaultEvent> events);

  int node_count() const { return node_count_; }
  double duration_days() const { return duration_days_; }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Faulty-node mask at an instant. Scans the start-sorted events, so it is
  /// linear in the number of events that started by `day`.
  PackedMask faulty_at(double day) const;

  /// Number of faulty nodes at an instant.
  int faulty_count_at(double day) const;

  /// The replay sample times for a step: {0, step, 2*step, ...} below
  /// duration_days(), accumulated exactly as a serial `day += step` replay
  /// loop would, so the one-pass replay enumerates bit-identical days.
  std::vector<double> sample_days(double step_days) const;

  /// Sub-trace restricted to the events overlapping the closed interval
  /// [start_day, end_day]: faulty_at(d) on the slice matches the full trace
  /// for every d in that range (masks for days before start_day are
  /// meaningless). Node count is preserved; the slice's duration_days() is
  /// clamped to just past end_day, so sample_days()/ratio_series() on a
  /// slice stop at the slice boundary instead of iterating over the full
  /// trace's range. The one-pass replay in src/topo/waste.h never slices:
  /// it walks the full trace's grid timeline. A slice bounds the work of a
  /// serial-oracle replay over a prefix (perfbench's correctness check and
  /// tests).
  FaultTrace slice(double start_day, double end_day) const;

  /// The sorted transition timeline: one `down` edge per event start and
  /// one `up` edge per event end, ordered by (day, node, up-before-down).
  /// Events may overlap on one node; consumers must count active intervals
  /// per node (as word_delta_timeline() does) — a node is faulty while its
  /// active count is positive, which reproduces faulty_at() bit-for-bit.
  /// Built lazily once per trace on first use (thread-safe; copies of the
  /// trace share the cache) so repeated replays — every cell of a TP x
  /// architecture grid — skip the timeline sort.
  std::shared_ptr<const std::vector<FaultTransition>> transition_timeline()
      const;

  /// Shared, lazily built exact timeline (see WordDeltaTimeline): one
  /// active-interval walk over the whole transition timeline, folded into
  /// one word-XOR group per exact transition day. Cached like
  /// transition_timeline(), so the fold cost is paid once per trace.
  std::shared_ptr<const WordDeltaTimeline> word_delta_timeline() const;

  /// Grid timeline: one group per sample day of `step_days`
  /// (sample_days()) with a net change, stamped with that sample day and
  /// holding the mask change from the previous sample day to it, so a
  /// replay applies at most ONE group per sample. Built in one pass
  /// straight from the events (no transition sort): down edges arrive in
  /// start order, up edges are counting-sorted by the sample they first
  /// show at. Edges after the last sample day are dropped, and the masks
  /// are only correct ON the grid. Built exactly once per distinct step
  /// (callers racing on a fresh trace wait for that build) and shared by
  /// every grid cell; byte-equal to folding word_delta_timeline()'s groups
  /// up to the last sample onto the grid, without ever building it.
  std::shared_ptr<const WordDeltaTimeline> word_delta_timeline(
      double step_days) const;

  /// Fault-node-ratio time series sampled every `step_days`.
  TimeSeries ratio_series(double step_days = 1.0) const;

  /// Summary of the sampled ratio series (mean/p50/p99 used for Fig. 18).
  Summary ratio_summary(double step_days = 1.0) const;

  /// Mean repair (fault) duration across events, in days. 0 if no events.
  double mean_repair_days() const;

  /// The paper's Appendix-A normalization: convert a trace over 8-GPU nodes
  /// into a trace over 2x as many 4-GPU nodes. Each fault of 8-GPU node i
  /// is inherited by 4-GPU nodes {2i, 2i+1} independently with probability
  /// P(4-GPU fault | 8-GPU fault) = 50.21% (Bayes, from i.i.d. per-GPU
  /// fault probability p = 0.29%).
  FaultTrace split_to_half_nodes(Rng& rng,
                                 double inherit_prob = 0.5021) const;

  /// Rescale the trace onto a cluster with `new_node_count` nodes by
  /// linearly mapping node ids (paper: "the simulator linearly maps the
  /// fault trace onto different network architectures"). Requires
  /// new_node_count <= node_count().
  FaultTrace remap_nodes(int new_node_count) const;

 private:
  struct TimelineCache;

  int node_count_;
  double duration_days_;
  std::vector<FaultEvent> events_;  // (start_day, node, end_day) order
  std::shared_ptr<TimelineCache> timeline_cache_;  // filled on first use
};

/// Draw an i.i.d. faulty-node mask with an *exact* number of faulty nodes:
/// round(node_count * ratio) distinct nodes chosen uniformly. Used for the
/// fault-ratio sweep figures (14, 17c, 22).
PackedMask sample_fault_mask(int node_count, double ratio, Rng& rng);

/// Bernoulli variant: each node faulty independently with probability
/// `ratio` (used by property tests against the analytic bound).
PackedMask sample_fault_mask_iid(int node_count, double ratio, Rng& rng);

}  // namespace ihbd::fault
