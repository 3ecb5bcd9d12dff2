#include "src/ocstrx/reconfig_queue.h"

#include <algorithm>

namespace ihbd::ocstrx {

double RetryPolicy::backoff_for(int failed_attempts) const {
  double b = base_backoff;
  for (int i = 1; i < failed_attempts && b < max_backoff; ++i)
    b *= backoff_factor;
  return std::min(b, max_backoff);
}

ReconfigQueue::Slot& ReconfigQueue::stray_slot(int node) {
  return strays_[node];
}

std::vector<ReconfigOutcome> ReconfigQueue::drain_batch(
    std::vector<NodeFabricManager>& fleet, double now, Rng& rng) {
  std::vector<ReconfigOutcome> out;
  out.reserve(std::min(max_batch_, pending()));
  drain(fleet, now, rng,
        [&out](const ReconfigOutcome& oc) { out.push_back(oc); });
  return out;
}

}  // namespace ihbd::ocstrx
