// Batched OCS reconfiguration queue (control-plane side of §5.2 / G.1).
//
// The always-on control plane does not steer bundles synchronously: every
// placement change (job start, fault re-orchestration, repair) enqueues a
// per-node reconfiguration request — "apply preloaded session S on node n"
// — and a drain event applies a FIFO batch against the fleet's actuators:
// an ocstrx::Fleet (the control plane's flat state) or a vector of
// NodeFabricManagers (the object model), through one drain algorithm.
// Three properties matter at fleet scale:
//
//   * COALESCING: while a request for node n is still queued (ready or
//     backing off), a newer request for n replaces its target session in
//     place. The node switches once, to the latest target, but the request
//     keeps its original queue position and enqueue time — whoever started
//     waiting first has been waiting since then, and that wait is what the
//     ctrl.reconfig_latency histogram must see. Retargeting a backing-off
//     request resets its attempt budget (it is a new intent) but keeps its
//     backoff slot: the node's hardware is still the one that just failed.
//   * BATCHING: drain() pops at most `max_batch` requests per call,
//     modelling a fabric-manager RPC fan-out budget per drain tick; the
//     control plane re-arms drain events while the queue stays non-empty.
//   * RETRY WITH BACKOFF: a transiently failed attempt (failed bundle
//     hardware, or an injected fault from fault::InjectionPlan) re-queues
//     the request with capped exponential backoff; after
//     RetryPolicy::max_attempts the request moves to a dead-letter list
//     for operator escalation. Unknown sessions and out-of-range nodes are
//     PERMANENT failures: retrying cannot fix a request that was wrong, so
//     they resolve (as failed) on the first attempt.
//
// The queue itself is pure bookkeeping (deterministic, no engine or obs
// dependency); src/ctrl owns the drain cadence and the metrics. Requests
// live in per-node slots and the ready/backoff lists hold node ids, so
// queueing and draining a request allocates nothing. drain() hands each
// outcome to a caller's visitor as it is produced, and the per-request
// calls (enqueue, the dense slot lookup, Fleet::apply_session) are inline,
// so one request costs one pass and stores no outcome.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/contracts.h"
#include "src/common/rng.h"
#include "src/fault/injection.h"
#include "src/ocstrx/fabric_manager.h"
#include "src/ocstrx/fleet.h"

namespace ihbd::ocstrx {

/// One queued "apply session on node" request.
struct ReconfigRequest {
  int node = 0;
  SessionId session;
  double enqueued_at = 0.0;  ///< caller's clock (the ctrl plane uses days)
  int attempts = 0;          ///< apply attempts consumed (incl. current)
  double not_before = 0.0;   ///< earliest next attempt (retry backoff)
};

/// Capped exponential backoff for transiently failed reconfigurations.
/// Times are in the caller's clock units; the defaults assume DAYS (the
/// ctrl plane's unit) and spell 2 s .. 64 s.
struct RetryPolicy {
  int max_attempts = 6;  ///< total attempts before dead-lettering
  double base_backoff = 2.0 / 86400.0;   ///< delay after the 1st failure
  double backoff_factor = 2.0;           ///< growth per further failure
  double max_backoff = 64.0 / 86400.0;   ///< backoff cap

  /// Backoff after `failed_attempts` consecutive failures (>= 1):
  /// min(base * factor^(failed_attempts-1), max).
  double backoff_for(int failed_attempts) const;
};

/// Outcome of one drained attempt. Exactly one of these holds per attempt;
/// an attempt is RESOLVED (success, permanent failure, or dead-letter)
/// unless `will_retry` is set, in which case the request is still queued
/// and a later drain produces its next outcome. drain() passes each one to
/// its visitor as a temporary; keep a copy to hold on to it.
struct ReconfigOutcome {
  ReconfigRequest request;  ///< attempts = attempts consumed so far
  double drained_at = 0.0;
  /// Node-level hardware switch latency in seconds (preloaded fast path),
  /// or nullopt when the attempt failed.
  std::optional<double> switch_latency_s;
  bool injected = false;       ///< failure came from the InjectionPlan
  bool permanent = false;      ///< unknown session / node out of range
  bool will_retry = false;     ///< re-queued with backoff; NOT resolved
  bool dead_lettered = false;  ///< gave up after max_attempts

  bool ok() const { return switch_latency_s.has_value(); }
  bool resolved() const { return !will_retry; }
};

/// FIFO reconfiguration queue with per-node coalescing, batched drains and
/// capped-exponential retry of transient failures.
class ReconfigQueue {
 public:
  /// `nodes` sizes the per-node slot table once, for node ids [0, nodes);
  /// other ids still get a slot on first use.
  explicit ReconfigQueue(std::size_t max_batch = 64, RetryPolicy retry = {},
                         fault::InjectionPlan inject = {},
                         std::size_t nodes = 0)
      : max_batch_(max_batch),
        policy_(retry),
        inject_(inject),
        slots_(std::min<std::size_t>(nodes, kDenseNodes)) {}

  /// Queue (or coalesce) a request for `node`. Returns true when a new
  /// entry was created, false when an in-queue request was coalesced.
  /// Must not be called from a drain() visitor.
  bool enqueue(int node, SessionId session, double now) {
    IHBD_EXPECTS(!draining_);
    Slot& s = slot(node);
    if (s.where != Slot::Where::kNone) {
      // Coalesce: retarget the queued request, keep its position and its
      // original enqueue time (the oldest waiter defines the wait). A
      // backing-off request also gets a fresh attempt budget — the intent
      // is new even though the node's backoff slot is not.
      s.request.session = session;
      if (s.where == Slot::Where::kRetry) s.request.attempts = 0;
      ++coalesced_;
      return false;
    }
    s.where = Slot::Where::kReady;
    s.request = ReconfigRequest{node, session, now, 0, now};
    ready_.push_back(node);
    ++enqueued_;
    return true;
  }
  /// Name-keyed form: resolve the name (intern_session) and forward.
  bool enqueue(int node, const std::string& session, double now) {
    return enqueue(node, intern_session(session), now);
  }

  /// Requests not yet resolved: ready to drain plus backing off.
  std::size_t pending() const { return ready_.size() + retry_.size(); }
  bool empty() const { return ready_.empty() && retry_.empty(); }
  std::size_t ready() const { return ready_.size(); }
  std::size_t retrying() const { return retry_.size(); }
  std::size_t max_batch() const { return max_batch_; }
  const RetryPolicy& policy() const { return policy_; }

  /// Earliest backoff deadline among backing-off requests.
  std::optional<double> next_retry_at() const {
    if (retry_.empty()) return std::nullopt;
    return retry_.front().not_before;
  }

  /// Lifetime counters (monotonic). `drained` counts RESOLVED requests
  /// (success, permanent failure, dead-letter); `failed` counts failed
  /// apply attempts (including ones that were later retried to success);
  /// `retried` counts re-queues; `injected` counts InjectionPlan hits.
  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t coalesced() const { return coalesced_; }
  std::uint64_t drained() const { return drained_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t retried() const { return retried_; }
  std::uint64_t dead_lettered() const { return dead_lettered_; }
  std::uint64_t injected() const { return injected_; }

  /// Requests that exhausted their attempt budget, in give-up order.
  const std::vector<ReconfigRequest>& dead_letters() const { return dead_; }

  /// Pop up to max_batch() due requests in FIFO order (backed-off requests
  /// whose deadline has passed rejoin the FIFO first, in deadline order)
  /// and apply each to its node's actuators (preloaded fast path). `fleet`
  /// is an ocstrx::Fleet or a std::vector<NodeFabricManager>; nodes are
  /// fleet indices. Both fleet types run the same algorithm and, for the
  /// same state and Rng, yield the same outcomes.
  ///
  /// Calls visit(const ReconfigOutcome&) once per attempt, in drain order,
  /// after the queue's own bookkeeping for that attempt (counters, retry
  /// or dead-letter) is done. The visitor must not call enqueue() and
  /// drain() must not be re-entered; both abort.
  template <typename FleetT, typename Visit>
  void drain(FleetT& fleet, double now, Rng& rng, Visit&& visit);

  /// drain() collected into a vector: the object-model form.
  std::vector<ReconfigOutcome> drain_batch(std::vector<NodeFabricManager>& fleet,
                                           double now, Rng& rng);

 private:
  /// A node's queued request (a node has at most one) and which list holds
  /// the node.
  struct Slot {
    enum class Where : std::uint8_t { kNone, kReady, kRetry };
    Where where = Where::kNone;
    ReconfigRequest request;
  };
  /// A backing-off node with its deadline (= its request's not_before).
  struct Backoff {
    double not_before;
    int node;
  };

  /// Node ids in [0, kDenseNodes) get a dense slot; any other id (negative,
  /// or beyond every fleet this models) goes to `strays_`. Either way the
  /// request resolves as permanent at drain if no fleet node has that id.
  static constexpr int kDenseNodes = 1 << 20;
  Slot& slot(int node) {
    if (node < 0 || node >= kDenseNodes) return stray_slot(node);
    const auto i = static_cast<std::size_t>(node);
    if (i >= slots_.size()) slots_.resize(i + 1);
    return slots_[i];
  }
  Slot& stray_slot(int node);

  // The two fleet types seen through the calls drain() makes.
  static bool has_session(const Fleet& fleet, int node, SessionId id) {
    return fleet.has_session(node, id);
  }
  static std::optional<double> apply_session(Fleet& fleet, int node,
                                             SessionId id, Rng& rng) {
    return fleet.apply_session(node, id, rng);
  }
  static bool has_session(const std::vector<NodeFabricManager>& fleet,
                          int node, SessionId id) {
    return node >= 0 && node < static_cast<int>(fleet.size()) &&
           fleet[static_cast<std::size_t>(node)].has_session(id);
  }
  static std::optional<double> apply_session(
      std::vector<NodeFabricManager>& fleet, int node, SessionId id,
      Rng& rng) {
    return fleet[static_cast<std::size_t>(node)].apply_session(id, rng);
  }

  std::size_t max_batch_;
  RetryPolicy policy_;
  fault::InjectionPlan inject_;
  std::deque<int> ready_;       ///< FIFO of nodes, due now
  std::deque<Backoff> retry_;   ///< sorted by not_before (stable)
  std::vector<Slot> slots_;     ///< by node id
  std::map<int, Slot> strays_;
  std::vector<ReconfigRequest> dead_;
  std::uint64_t inject_seq_ = 0;  ///< per-attempt injection sequence
  std::uint64_t enqueued_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t drained_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t dead_lettered_ = 0;
  std::uint64_t injected_ = 0;
  bool draining_ = false;  ///< inside drain(): enqueue and drain abort
};

template <typename FleetT, typename Visit>
void ReconfigQueue::drain(FleetT& fleet, double now, Rng& rng,
                          Visit&& visit) {
  IHBD_EXPECTS(!draining_);
  struct Guard {
    bool& flag;
    ~Guard() { flag = false; }
  } guard{draining_};
  draining_ = true;

  // Due retries rejoin the FIFO tail in deadline order before the batch is
  // cut, so a recovered request competes fairly with fresh arrivals.
  while (!retry_.empty() && retry_.front().not_before <= now) {
    const int node = retry_.front().node;
    retry_.pop_front();
    slot(node).where = Slot::Where::kReady;
    ready_.push_back(node);
  }

  for (std::size_t n = 0; n < max_batch_ && !ready_.empty(); ++n) {
    const int node = ready_.front();
    ready_.pop_front();
    Slot& s = slot(node);
    s.where = Slot::Where::kNone;
    ReconfigOutcome oc;
    oc.request = s.request;
    oc.drained_at = now;
    ++oc.request.attempts;

    if (!has_session(fleet, node, oc.request.session)) {
      // A malformed request stays malformed: fail it permanently instead
      // of burning the retry budget.
      oc.permanent = true;
      ++failed_;
      ++drained_;
    } else {
      if (inject_.should_fail(node, inject_seq_++)) {
        oc.injected = true;
        ++injected_;
      } else {
        oc.switch_latency_s =
            apply_session(fleet, node, oc.request.session, rng);
      }
      if (oc.ok()) {
        ++drained_;
      } else {
        ++failed_;
        if (oc.request.attempts >= policy_.max_attempts) {
          oc.dead_lettered = true;
          dead_.push_back(oc.request);
          ++dead_lettered_;
          ++drained_;
        } else {
          oc.will_retry = true;
          s.where = Slot::Where::kRetry;
          s.request = oc.request;
          s.request.not_before =
              now + policy_.backoff_for(oc.request.attempts);
          // Stable insert by deadline: behind every request due no later.
          const auto pos = std::upper_bound(
              retry_.begin(), retry_.end(), s.request.not_before,
              [](double t, const Backoff& b) { return t < b.not_before; });
          retry_.insert(pos, Backoff{s.request.not_before, node});
          ++retried_;
        }
      }
    }
    visit(static_cast<const ReconfigOutcome&>(oc));
  }
}

}  // namespace ihbd::ocstrx
