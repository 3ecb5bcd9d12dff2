#include "src/ocstrx/reconfig_queue.h"

#include <algorithm>
#include <cmath>

namespace ihbd::ocstrx {
namespace {

// The two fleet types seen through the calls drain() makes.
bool has_session(const Fleet& fleet, int node, SessionId id) {
  return fleet.has_session(node, id);
}
std::optional<double> apply_session(Fleet& fleet, int node, SessionId id,
                                    Rng& rng) {
  return fleet.apply_session(node, id, rng);
}

bool has_session(const std::vector<NodeFabricManager>& fleet, int node,
                 SessionId id) {
  return node >= 0 && node < static_cast<int>(fleet.size()) &&
         fleet[static_cast<std::size_t>(node)].has_session(id);
}
std::optional<double> apply_session(std::vector<NodeFabricManager>& fleet,
                                    int node, SessionId id, Rng& rng) {
  return fleet[static_cast<std::size_t>(node)].apply_session(id, rng);
}

}  // namespace

double RetryPolicy::backoff_for(int failed_attempts) const {
  double b = base_backoff;
  for (int i = 1; i < failed_attempts && b < max_backoff; ++i)
    b *= backoff_factor;
  return std::min(b, max_backoff);
}

ReconfigQueue::Slot& ReconfigQueue::slot(int node) {
  if (node < 0 || node >= kDenseNodes) return strays_[node];
  const auto i = static_cast<std::size_t>(node);
  if (i >= slots_.size()) slots_.resize(i + 1);
  return slots_[i];
}

bool ReconfigQueue::enqueue(int node, SessionId session, double now) {
  Slot& s = slot(node);
  if (s.where != Slot::Where::kNone) {
    // Coalesce: retarget the queued request, keep its position and its
    // original enqueue time (the oldest waiter defines the wait). A
    // backing-off request also gets a fresh attempt budget — the intent is
    // new even though the node's backoff slot is not.
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

template <typename FleetT>
void ReconfigQueue::drain(FleetT& fleet, double now, Rng& rng,
                          std::vector<ReconfigOutcome>& out) {
  // Due retries rejoin the FIFO tail in deadline order before the batch is
  // cut, so a recovered request competes fairly with fresh arrivals.
  while (!retry_.empty() && retry_.front().not_before <= now) {
    const int node = retry_.front().node;
    retry_.pop_front();
    slot(node).where = Slot::Where::kReady;
    ready_.push_back(node);
  }

  out.clear();
  out.reserve(std::min(max_batch_, ready_.size()));
  while (!ready_.empty() && out.size() < max_batch_) {
    const int node = ready_.front();
    ready_.pop_front();
    Slot& s = slot(node);
    s.where = Slot::Where::kNone;
    ReconfigOutcome& oc = out.emplace_back();
    oc.request = s.request;
    oc.drained_at = now;
    ++oc.request.attempts;

    if (!has_session(fleet, node, oc.request.session)) {
      // A malformed request stays malformed: fail it permanently instead
      // of burning the retry budget.
      oc.permanent = true;
      ++failed_;
      ++drained_;
      continue;
    }
    if (inject_.should_fail(node, inject_seq_++)) {
      oc.injected = true;
      ++injected_;
    } else {
      oc.switch_latency_s =
          apply_session(fleet, node, oc.request.session, rng);
    }
    if (oc.ok()) {
      ++drained_;
      continue;
    }
    ++failed_;
    if (oc.request.attempts >= policy_.max_attempts) {
      oc.dead_lettered = true;
      dead_.push_back(oc.request);
      ++dead_lettered_;
      ++drained_;
      continue;
    }
    oc.will_retry = true;
    s.where = Slot::Where::kRetry;
    s.request = oc.request;
    s.request.not_before = now + policy_.backoff_for(oc.request.attempts);
    // Stable insert by deadline: behind every request due no later.
    const auto pos = std::upper_bound(
        retry_.begin(), retry_.end(), s.request.not_before,
        [](double t, const Backoff& b) { return t < b.not_before; });
    retry_.insert(pos, Backoff{s.request.not_before, node});
    ++retried_;
  }
}

void ReconfigQueue::drain_batch(Fleet& fleet, double now, Rng& rng,
                                std::vector<ReconfigOutcome>& out) {
  drain(fleet, now, rng, out);
}

std::vector<ReconfigOutcome> ReconfigQueue::drain_batch(
    std::vector<NodeFabricManager>& fleet, double now, Rng& rng) {
  std::vector<ReconfigOutcome> out;
  drain(fleet, now, rng, out);
  return out;
}

}  // namespace ihbd::ocstrx
