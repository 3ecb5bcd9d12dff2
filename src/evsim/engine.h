// Discrete-event simulation engine.
//
// A minimal priority-queue scheduler over a caller-chosen time unit. Used by
// the collective-communication simulator (§5.2 reproduction, seconds), by
// the OCSTrx reconfiguration state machine to model the 60-80 us switching
// latency (seconds), and by the src/ctrl control-plane daemon as its event
// loop (job arrivals/departures, fault transitions, reconfig batch drains;
// days).
//
// Layout. The binary heap holds 24-byte {at, seq, slot} entries; the
// callback, period and liveness of each scheduled event live in a dense slot
// array whose released slots are reused through a free list. A slot is
// released only when its heap entry pops (fired or cancelled), so a stale
// entry never runs whatever event reused the slot.
//
// Ids. An id is (generation << 32) | (slot + 1). A fresh slot has
// generation 0, so the first ids handed out are 1, 2, 3, ...; id 0 is never
// issued. A slot's generation goes up each time the slot is released, so a
// stale id misses in cancel() and ids are not reused (within 2^32 releases
// of one slot).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace ihbd::evsim {

/// Simulated time, in whatever unit the caller schedules in (seconds for
/// the collective and OCSTrx models, days for the control plane). The
/// engine only adds and compares times.
using SimTime = double;

/// Handle to a scheduled event or periodic timer, usable with cancel().
/// Never 0, and never reused within one Engine.
using EventId = std::uint64_t;

/// Event callback; runs at its scheduled time with the engine available for
/// scheduling follow-up events.
class Engine;
using EventFn = std::function<void(Engine&)>;

/// Priority-queue discrete-event engine. Events at equal times run in
/// scheduling (FIFO) order, which keeps simulations deterministic.
class Engine {
 public:
  Engine() = default;

  /// Current simulated time. 0 before the first event runs.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (>= now(); +inf is legal and
  /// fires once under run()). The returned id stays valid until the event
  /// fires or is cancelled; inside its own callback it is already dead.
  EventId schedule_at(SimTime at, EventFn fn);

  /// Schedule `fn` to run `delay` time units from now (delay >= 0).
  EventId schedule_in(SimTime delay, EventFn fn);

  /// Schedule `fn` to run every `period` time units (finite, > 0), first at
  /// now() + first_delay (first_delay >= 0 and now() + first_delay finite),
  /// then at fixed period increments. The id stays valid across firings;
  /// the timer runs until cancelled (including from inside its own
  /// callback).
  EventId schedule_every(SimTime first_delay, SimTime period, EventFn fn);

  /// Cancel a pending event or an active periodic timer. Returns true if
  /// the id was live (the event will not fire again); false if it already
  /// fired, was already cancelled, or never existed. Safe to call from
  /// inside event callbacks.
  bool cancel(EventId id);

  /// Run until the event queue drains (or, for run_until, events at times
  /// <= `until` are exhausted). Returns the final now().
  ///
  /// run_until semantics, precisely:
  ///   * `until` must not be NaN; run() passes +inf;
  ///   * events scheduled exactly AT `until` do run (inclusive bound);
  ///   * when events remain pending beyond `until`, the engine's clock is
  ///     still advanced to exactly `until` (final now() == until), so a
  ///     subsequent schedule_in() is relative to the horizon, not to the
  ///     last executed event;
  ///   * when the queue drains before `until`, now() is likewise left at
  ///     `until`, never beyond it;
  ///   * run_until never runs backwards: a horizon below now() leaves the
  ///     clock untouched and executes nothing.
  SimTime run();
  SimTime run_until(SimTime until);

  /// Number of events executed so far. Cancelled events never count;
  /// each firing of a periodic timer counts once.
  std::uint64_t executed() const { return executed_; }
  /// Number of events still pending: cancelled-but-not-yet-popped queue
  /// entries are excluded, and an active periodic timer counts exactly
  /// once (its next occurrence).
  std::size_t pending() const { return heap_.size() - dead_in_queue_; }
  /// Number of events cancelled so far (periodic timers count once).
  std::uint64_t cancelled() const { return cancelled_; }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;   // FIFO tie-break (fresh per firing)
    std::uint32_t slot;  // index into slots_
  };
  static_assert(sizeof(Entry) == 24, "heap entries stay 24 bytes");

  struct Slot {
    EventFn fn;
    SimTime period = 0.0;  // 0 = one-shot
    std::uint32_t generation = 0;
    bool live = false;  // scheduled and not cancelled
  };

  EventId arm(SimTime at, SimTime period, EventFn fn);
  void push(Entry e);
  Entry pop();
  /// Free `slot` for reuse; its current id goes stale.
  void release(std::uint32_t slot);

  std::vector<Entry> heap_;  // min-heap on (at, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t dead_in_queue_ = 0;  // heap entries of cancelled events
};

}  // namespace ihbd::evsim
