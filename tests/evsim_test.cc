#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/evsim/engine.h"

namespace ihbd::evsim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&](Engine&) { order.push_back(3); });
  e.schedule_at(1.0, [&](Engine&) { order.push_back(1); });
  e.schedule_at(2.0, [&](Engine&) { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.executed(), 3u);
}

TEST(Engine, EqualTimesRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    e.schedule_at(1.0, [&order, i](Engine&) { order.push_back(i); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NowAdvancesWithEvents) {
  Engine e;
  double seen = -1.0;
  e.schedule_at(2.5, [&](Engine& eng) { seen = eng.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(e.now(), 2.5);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  double t2 = 0.0;
  e.schedule_at(1.0, [&](Engine& eng) {
    eng.schedule_in(0.5, [&](Engine& inner) { t2 = inner.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(t2, 1.5);
}

TEST(Engine, CascadedEvents) {
  Engine e;
  int count = 0;
  std::function<void(Engine&)> tick = [&](Engine& eng) {
    if (++count < 10) eng.schedule_in(1.0, tick);
  };
  e.schedule_at(0.0, tick);
  e.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(e.now(), 9.0);
}

TEST(Engine, RunUntilStopsEarly) {
  Engine e;
  int ran = 0;
  e.schedule_at(1.0, [&](Engine&) { ++ran; });
  e.schedule_at(5.0, [&](Engine&) { ++ran; });
  e.run_until(2.0);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  e.run();
  EXPECT_EQ(ran, 2);
}

TEST(Engine, RunOnEmptyQueueIsNoop) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.run(), 0.0);
  EXPECT_EQ(e.executed(), 0u);
}

// --- run_until semantics (documented contract) ------------------------------

TEST(RunUntil, EventExactlyAtHorizonRuns) {
  Engine e;
  int ran = 0;
  e.schedule_at(2.0, [&](Engine&) { ++ran; });
  e.run_until(2.0);  // inclusive bound
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(RunUntil, ClockAdvancesToHorizonWithEventsStillPending) {
  Engine e;
  e.schedule_at(10.0, [](Engine&) {});
  e.run_until(4.0);
  // The pending event did not run, but now() is exactly the horizon so a
  // follow-up schedule_in is relative to it.
  EXPECT_EQ(e.executed(), 0u);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_DOUBLE_EQ(e.now(), 4.0);
  double seen = -1.0;
  e.schedule_in(1.0, [&](Engine& eng) { seen = eng.now(); });
  e.run_until(5.0);
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_EQ(e.pending(), 1u);  // the 10.0 event still waits
}

TEST(RunUntil, DrainedQueueStillLandsOnHorizon) {
  Engine e;
  e.schedule_at(1.0, [](Engine&) {});
  e.run_until(7.0);
  EXPECT_DOUBLE_EQ(e.now(), 7.0);  // not 1.0, and never beyond 7.0
}

TEST(RunUntil, HorizonBelowNowIsNoop) {
  Engine e;
  e.schedule_at(5.0, [](Engine&) {});
  e.run_until(5.0);
  e.schedule_at(8.0, [](Engine&) {});
  e.run_until(3.0);  // backwards horizon: nothing runs, clock untouched
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.pending(), 1u);
}

// --- cancellable events -----------------------------------------------------

TEST(Cancel, PendingEventNeverRuns) {
  Engine e;
  int ran = 0;
  const EventId id = e.schedule_at(1.0, [&](Engine&) { ++ran; });
  e.schedule_at(2.0, [&](Engine&) { ++ran; });
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending(), 1u);  // drops immediately, before the pop
  EXPECT_EQ(e.cancelled(), 1u);
  e.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.executed(), 1u);  // cancelled events never count as executed
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Cancel, ReturnsFalseForDeadOrUnknownIds) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [](Engine&) {});
  EXPECT_FALSE(e.cancel(id + 100));  // never existed
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // already cancelled
  const EventId fired = e.schedule_at(2.0, [](Engine&) {});
  e.run();
  EXPECT_FALSE(e.cancel(fired));  // already fired
}

TEST(Cancel, FromInsideAnotherCallback) {
  Engine e;
  int ran = 0;
  const EventId victim = e.schedule_at(2.0, [&](Engine&) { ++ran; });
  e.schedule_at(1.0, [&](Engine& eng) { EXPECT_TRUE(eng.cancel(victim)); });
  e.run();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.pending(), 0u);
}

// --- periodic timers --------------------------------------------------------

TEST(Periodic, FiresAtFixedCadenceUntilCancelled) {
  Engine e;
  std::vector<double> at;
  const EventId id =
      e.schedule_every(1.0, 2.0, [&](Engine& eng) { at.push_back(eng.now()); });
  e.run_until(7.0);
  EXPECT_EQ(at, (std::vector<double>{1.0, 3.0, 5.0, 7.0}));
  EXPECT_EQ(e.executed(), 4u);
  EXPECT_EQ(e.pending(), 1u);  // the next occurrence counts exactly once
  EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending(), 0u);
  e.run();
  EXPECT_EQ(e.executed(), 4u);
}

TEST(Periodic, SelfCancelStopsTheTimer) {
  Engine e;
  int fired = 0;
  EventId id = 0;
  id = e.schedule_every(1.0, 1.0, [&](Engine& eng) {
    if (++fired == 3) EXPECT_TRUE(eng.cancel(id));
  });
  e.run();  // would never drain if the timer kept re-arming
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.executed(), 3u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.cancelled(), 1u);
}

TEST(Periodic, InterleavesFifoWithOneShots) {
  Engine e;
  std::vector<int> order;
  e.schedule_every(1.0, 1.0, [&](Engine& eng) {
    order.push_back(100 + static_cast<int>(eng.now()));
    if (eng.now() >= 3.0) eng.cancel(1);  // first id handed out
  });
  e.schedule_at(2.0, [&](Engine&) { order.push_back(2); });
  // Same-time tie: the periodic's occurrence at 2.0 was re-armed at 1.0,
  // AFTER the one-shot was scheduled, so the one-shot runs first.
  e.run();
  EXPECT_EQ(order, (std::vector<int>{101, 2, 102, 103}));
}

// --- ids and slot reuse -----------------------------------------------------

constexpr EventId kSlotBits = 0xffffffffull;

TEST(SlotReuse, FiredOneShotIdDoesNotCancelTheSlotsNextEvent) {
  Engine e;
  const EventId first = e.schedule_at(1.0, [](Engine&) {});
  e.run();
  int ran = 0;
  const EventId second = e.schedule_at(2.0, [&](Engine&) { ++ran; });
  // The fired event's slot is reused under a new generation.
  EXPECT_EQ(second & kSlotBits, first & kSlotBits);
  EXPECT_NE(second, first);
  EXPECT_FALSE(e.cancel(first));
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.cancelled(), 0u);
  e.run();
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(e.cancel(second));  // fired
}

TEST(SlotReuse, CancelledEventKeepsItsSlotUntilItsEntryPops) {
  Engine e;
  std::vector<int> order;
  const EventId a = e.schedule_at(2.0, [&](Engine&) { order.push_back(1); });
  EXPECT_TRUE(e.cancel(a));
  // The stale heap entry at 2.0 still holds a's slot: b must not take it,
  // or the stale entry would run b at 2.0.
  const EventId b = e.schedule_at(3.0, [&](Engine&) { order.push_back(2); });
  EXPECT_NE(b & kSlotBits, a & kSlotBits);
  EXPECT_FALSE(e.cancel(a));
  EXPECT_EQ(e.pending(), 1u);
  e.run_until(2.5);  // pops the stale entry, frees a's slot
  EXPECT_TRUE(order.empty());
  const EventId c = e.schedule_at(4.0, [&](Engine&) { order.push_back(3); });
  EXPECT_EQ(c & kSlotBits, a & kSlotBits);
  EXPECT_FALSE(e.cancel(a));  // a's id is stale, c keeps running
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(e.executed(), 2u);
  EXPECT_EQ(e.cancelled(), 1u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(SlotReuse, IdZeroIsNeverIssued) {
  Engine e;
  EXPECT_FALSE(e.cancel(0));
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(e.schedule_in(0.0, [](Engine&) {}), 0u);
    e.run();
  }
  EXPECT_FALSE(e.cancel(0));
}

TEST(Periodic, CancelledFromAnotherCallbackStops) {
  Engine e;
  std::vector<double> at;
  const EventId timer =
      e.schedule_every(1.0, 1.0, [&](Engine& eng) { at.push_back(eng.now()); });
  e.schedule_at(3.5, [&](Engine& eng) {
    EXPECT_EQ(eng.pending(), 1u);  // the timer's next occurrence
    EXPECT_TRUE(eng.cancel(timer));
    EXPECT_EQ(eng.pending(), 0u);
    EXPECT_EQ(eng.cancelled(), 1u);
    EXPECT_FALSE(eng.cancel(timer));
  });
  e.run();  // would never drain if the timer kept re-arming
  EXPECT_EQ(at, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(e.executed(), 4u);
  EXPECT_EQ(e.cancelled(), 1u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 3.5);
}

// --- horizons and timers that never finish ----------------------------------

TEST(RunUntil, InfiniteOneShotFiresOnceUnderRun) {
  Engine e;
  int ran = 0;
  e.schedule_at(std::numeric_limits<double>::infinity(),
                [&](Engine&) { ++ran; });
  e.run_until(1e300);
  EXPECT_EQ(ran, 0);
  e.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.now(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(e.pending(), 0u);
}

using EngineDeathTest = ::testing::Test;

TEST(EngineDeathTest, RejectsPeriodicTimersThatNeverAdvance) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Engine e;
  const auto noop = [](Engine&) {};
  // Each would re-arm at inf + inf == inf and fire forever under run().
  EXPECT_DEATH(e.schedule_every(0.0, inf, noop), "std::isfinite.period.");
  EXPECT_DEATH(e.schedule_every(0.0, nan, noop), "period > 0.0");
  EXPECT_DEATH(e.schedule_every(inf, 1.0, noop),
               "std::isfinite.now_ \\+ first_delay.");
  EXPECT_DEATH(e.schedule_every(nan, 1.0, noop), "first_delay >= 0.0");
  // From a clock already at +inf, every occurrence would land at +inf.
  e.schedule_at(inf, noop);
  e.run();
  EXPECT_DEATH(e.schedule_every(0.0, 1.0, noop),
               "std::isfinite.now_ \\+ first_delay.");
}

TEST(EngineDeathTest, RejectsNaNHorizon) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Engine e;
  e.schedule_at(1.0, [](Engine&) {});
  EXPECT_DEATH(e.run_until(std::numeric_limits<double>::quiet_NaN()),
               "std::isnan.until.");
}

// --- differential test against an O(n) reference model ----------------------

/// The engine's contract with none of its data structures: a flat vector of
/// events, scanned for the earliest (at, seq) on every pop. Ids are the
/// caller's tags.
class ReferenceEngine {
 public:
  double now() const { return now_; }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::size_t pending() const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(),
                      [](const Event& ev) { return ev.live; }));
  }

  void schedule(double at, double period, std::uint64_t id) {
    events_.push_back({at, seq_++, id, period, true});
  }

  bool cancel(std::uint64_t id) {
    for (Event& ev : events_) {
      if (ev.id == id && ev.live) {
        ev.live = false;
        ++cancelled_;
        return true;
      }
    }
    if (running_.id == id && running_.live) {  // a periodic's own callback
      running_.live = false;
      ++cancelled_;
      return true;
    }
    return false;
  }

  template <class Fire>
  void run_until(double until, Fire&& fire) {
    for (;;) {
      const auto next = std::min_element(
          events_.begin(), events_.end(), [](const Event& a, const Event& b) {
            return a.at != b.at ? a.at < b.at : a.seq < b.seq;
          });
      if (next == events_.end() || next->at > until) break;
      const Event ev = *next;
      events_.erase(next);
      if (!ev.live) continue;
      now_ = ev.at;
      ++executed_;
      if (ev.period == 0.0) {
        fire(ev.id);
        continue;
      }
      running_ = ev;
      fire(ev.id);
      if (running_.live) schedule(now_ + ev.period, ev.period, ev.id);
      running_ = Event{};
    }
    if (now_ < until && until < std::numeric_limits<double>::infinity())
      now_ = until;
  }

 private:
  struct Event {
    double at = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t id = ~0ull;
    double period = 0.0;
    bool live = false;
  };
  std::vector<Event> events_;
  Event running_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
};

/// What happened, in order: each firing (tag << 2) and each cancel
/// ((tag << 2) | 1 when it hit, | 2 when it missed).
using History = std::vector<std::uint64_t>;

/// Applies `count` random operations to `side`. Events are named by tags
/// 0, 1, 2, ... in scheduling order; tag == side.tags() names an event
/// that was never scheduled. `self` is the firing event's tag, or -1.
template <class Side>
void random_ops(Side& side, Rng& rng, int count, std::int64_t self) {
  for (int i = 0; i < count; ++i) {
    side.ops += 1;
    const double roll = rng.uniform();
    const double delay = 0.5 * static_cast<double>(rng.uniform_int(0, 6));
    if (roll < 0.45) {
      side.schedule(delay, 0.0);
    } else if (roll < 0.50) {
      side.schedule(delay, 0.5 * static_cast<double>(rng.uniform_int(1, 4)));
    } else {
      const std::uint64_t tags = side.tags();
      std::uint64_t tag = tags;  // never scheduled
      if (roll < 0.55 && self >= 0) {
        tag = static_cast<std::uint64_t>(self);
      } else if (roll < 0.80 && tags > 0) {
        tag = tags - 1 - rng.uniform_index(std::min<std::uint64_t>(tags, 16));
      } else if (roll < 0.98) {
        tag = rng.uniform_index(tags + 1);
      }
      side.history.push_back(tag << 2 | (side.cancel(tag) ? 1u : 2u));
    }
  }
}

/// A firing's operations depend only on (tag, firing number), so both sides
/// replay the same callbacks as long as they fire the same events.
template <class Side>
void on_fire(Side& side, std::uint64_t tag) {
  side.history.push_back(tag << 2);
  Rng rng(0x5eed0000ull + tag * 1000003ull + side.firings[tag]++);
  random_ops(side, rng, static_cast<int>(rng.uniform_int(0, 2)),
             static_cast<std::int64_t>(tag));
}

struct EngineSide {
  Engine engine;
  std::vector<EventId> ids;  // by tag
  std::vector<std::uint32_t> firings;
  History history;
  int ops = 0;

  std::uint64_t tags() const { return ids.size(); }
  void schedule(double delay, double period) {
    const std::uint64_t tag = ids.size();
    firings.push_back(0);
    EventFn fn = [this, tag](Engine&) { on_fire(*this, tag); };
    ids.push_back(period == 0.0
                      ? engine.schedule_in(delay, std::move(fn))
                      : engine.schedule_every(delay, period, std::move(fn)));
  }
  bool cancel(std::uint64_t tag) {
    return engine.cancel(tag < ids.size() ? ids[tag] : EventId{0});
  }
  void run_until(double until) { engine.run_until(until); }
};

struct ReferenceSide {
  ReferenceEngine model;
  std::uint64_t next_tag = 0;
  std::vector<std::uint32_t> firings;
  History history;
  int ops = 0;

  std::uint64_t tags() const { return next_tag; }
  void schedule(double delay, double period) {
    firings.push_back(0);
    model.schedule(model.now() + delay, period, next_tag++);
  }
  bool cancel(std::uint64_t tag) { return model.cancel(tag); }
  void run_until(double until) {
    model.run_until(until, [this](std::uint64_t tag) { on_fire(*this, tag); });
  }
};

TEST(Differential, MatchesReferenceModelUnderRandomOperations) {
  EngineSide engine;
  ReferenceSide model;
  Rng top(20251017);
  for (int step = 0; step < 800; ++step) {
    // Both sides replay the same top-level operations.
    const std::uint64_t seed = top.next();
    const int count = static_cast<int>(top.uniform_int(0, 4));
    Rng engine_rng(seed);
    Rng model_rng(seed);
    random_ops(engine, engine_rng, count, -1);
    random_ops(model, model_rng, count, -1);
    // Horizons on and between the half-unit event grid.
    const double horizon =
        engine.engine.now() + 0.25 * static_cast<double>(top.uniform_int(0, 8));
    engine.run_until(horizon);
    model.run_until(horizon);
    const std::string where = "step " + std::to_string(step);
    ASSERT_EQ(engine.history, model.history) << where;
    ASSERT_EQ(engine.engine.now(), model.model.now()) << where;
    ASSERT_EQ(engine.engine.executed(), model.model.executed()) << where;
    ASSERT_EQ(engine.engine.cancelled(), model.model.cancelled()) << where;
    ASSERT_EQ(engine.engine.pending(), model.model.pending()) << where;
  }
  // Drain: cancel everything still scheduled, then run to empty.
  for (std::uint64_t tag = 0; tag < engine.tags(); ++tag) {
    engine.history.push_back(tag << 2 | (engine.cancel(tag) ? 1u : 2u));
    model.history.push_back(tag << 2 | (model.cancel(tag) ? 1u : 2u));
  }
  engine.engine.run();
  model.model.run_until(std::numeric_limits<double>::infinity(),
                        [](std::uint64_t) { FAIL() << "cancelled event ran"; });
  EXPECT_EQ(engine.engine.pending(), 0u);
  EXPECT_EQ(engine.history, model.history);
  EXPECT_EQ(engine.engine.executed(), model.model.executed());
  EXPECT_EQ(engine.engine.cancelled(), model.model.cancelled());
  EXPECT_GT(engine.ops, 10000);
  EXPECT_GT(engine.engine.cancelled(), 1000u);
}

}  // namespace
}  // namespace ihbd::evsim
