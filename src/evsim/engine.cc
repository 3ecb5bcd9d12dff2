#include "src/evsim/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/contracts.h"

namespace ihbd::evsim {
namespace {

/// Heap order: the entry that fires later sits lower.
struct Later {
  template <class E>
  bool operator()(const E& a, const E& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

constexpr std::uint64_t kSlotMask = 0xffffffffull;

}  // namespace

EventId Engine::schedule_at(SimTime at, EventFn fn) {
  IHBD_EXPECTS(at >= now_);
  return arm(at, 0.0, std::move(fn));
}

EventId Engine::schedule_in(SimTime delay, EventFn fn) {
  IHBD_EXPECTS(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Engine::schedule_every(SimTime first_delay, SimTime period,
                               EventFn fn) {
  // An infinite first occurrence or period would re-arm at +inf forever.
  IHBD_EXPECTS(first_delay >= 0.0 && std::isfinite(now_ + first_delay));
  IHBD_EXPECTS(period > 0.0 && std::isfinite(period));
  return arm(now_ + first_delay, period, std::move(fn));
}

EventId Engine::arm(SimTime at, SimTime period, EventFn fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    IHBD_EXPECTS(slots_.size() < kSlotMask);
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.period = period;
  s.live = true;
  push(Entry{at, seq_++, slot});
  return (EventId{s.generation} << 32) | (EventId{slot} + 1);
}

bool Engine::cancel(EventId id) {
  const std::uint64_t slot = (id & kSlotMask) - 1;  // id 0 wraps: no slot
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.generation != (id >> 32)) return false;
  s.live = false;
  ++cancelled_;
  ++dead_in_queue_;  // exactly one heap entry carries a live slot
  return true;
}

void Engine::push(Entry e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Engine::Entry Engine::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  return e;
}

void Engine::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.live = false;
  ++s.generation;
  free_slots_.push_back(slot);
}

SimTime Engine::run() {
  return run_until(std::numeric_limits<double>::infinity());
}

SimTime Engine::run_until(SimTime until) {
  IHBD_EXPECTS(!std::isnan(until));
  while (!heap_.empty() && heap_.front().at <= until) {
    const Entry e = pop();
    Slot& s = slots_[e.slot];
    if (!s.live) {
      --dead_in_queue_;  // cancelled while queued: drop un-executed
      release(e.slot);
      continue;
    }
    now_ = e.at;
    ++executed_;
    // Move the callback out: it may schedule events and grow slots_.
    EventFn fn = std::move(s.fn);
    const SimTime period = s.period;
    if (period == 0.0) {
      release(e.slot);  // the id is dead inside its own callback
      fn(*this);
      continue;
    }
    fn(*this);
    // Periodic: the slot stays held while its callback runs, so it is the
    // same generation afterwards. Re-arm unless the callback cancelled it
    // (the cancel pre-counted a dead heap entry that will never exist).
    Slot& again = slots_[e.slot];
    if (again.live) {
      again.fn = std::move(fn);
      push(Entry{now_ + period, seq_++, e.slot});
    } else {
      --dead_in_queue_;
      release(e.slot);
    }
  }
  if (now_ < until && until < std::numeric_limits<double>::infinity())
    now_ = until;
  return now_;
}

}  // namespace ihbd::evsim
