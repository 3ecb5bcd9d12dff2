#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/error.h"
#include "src/evsim/engine.h"
#include "src/ocstrx/bundle.h"
#include "src/ocstrx/fabric_manager.h"
#include "src/ocstrx/fleet.h"
#include "src/ocstrx/reconfig_queue.h"
#include "src/ocstrx/transceiver.h"

namespace ihbd::ocstrx {
namespace {

TEST(Transceiver, StartsIdleAndDark) {
  Transceiver trx(0);
  EXPECT_EQ(trx.state(), TrxState::kIdle);
  EXPECT_FALSE(trx.active_path().has_value());
  EXPECT_DOUBLE_EQ(trx.bandwidth_gbps(OcsPath::kExternal1), 0.0);
}

TEST(Transceiver, SynchronousReconfigureActivates) {
  Transceiver trx(0);
  Rng rng(1);
  const auto latency = trx.reconfigure_now(OcsPath::kExternal1, rng);
  ASSERT_TRUE(latency.has_value());
  EXPECT_GE(*latency, 60e-6);
  EXPECT_LE(*latency, 80e-6);
  EXPECT_EQ(trx.state(), TrxState::kActive);
  EXPECT_DOUBLE_EQ(trx.bandwidth_gbps(OcsPath::kExternal1), 800.0);
}

TEST(Transceiver, TimeDivisionExclusivity) {
  // §4.1 Design 1: activating one path completely disables the others.
  Transceiver trx(0);
  Rng rng(1);
  trx.reconfigure_now(OcsPath::kExternal1, rng);
  trx.reconfigure_now(OcsPath::kExternal2, rng);
  EXPECT_DOUBLE_EQ(trx.bandwidth_gbps(OcsPath::kExternal1), 0.0);
  EXPECT_DOUBLE_EQ(trx.bandwidth_gbps(OcsPath::kExternal2), 800.0);
  EXPECT_DOUBLE_EQ(trx.bandwidth_gbps(OcsPath::kLoopback), 0.0);
}

TEST(Transceiver, ReconfigureToSamePathIsFree) {
  Transceiver trx(0);
  Rng rng(1);
  trx.reconfigure_now(OcsPath::kLoopback, rng);
  const auto again = trx.reconfigure_now(OcsPath::kLoopback, rng);
  ASSERT_TRUE(again.has_value());
  EXPECT_DOUBLE_EQ(*again, 0.0);
}

TEST(Transceiver, ControlPlaneLatencyWhenNotPreloaded) {
  Transceiver trx(0);
  Rng rng(1);
  const auto cold =
      trx.reconfigure_now(OcsPath::kExternal1, rng, /*preloaded=*/false);
  ASSERT_TRUE(cold.has_value());
  EXPECT_GT(*cold, 500e-6);  // hardware + control plane
}

TEST(Transceiver, EventDrivenReconfiguration) {
  Transceiver trx(0);
  Rng rng(1);
  evsim::Engine engine;
  bool done = false;
  ASSERT_TRUE(trx.reconfigure(engine, OcsPath::kExternal1, rng,
                              /*preloaded=*/true, [&] { done = true; }));
  EXPECT_EQ(trx.state(), TrxState::kReconfiguring);
  EXPECT_DOUBLE_EQ(trx.bandwidth_gbps(OcsPath::kExternal1), 0.0);
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(trx.state(), TrxState::kActive);
  EXPECT_GE(engine.now(), 60e-6);
  EXPECT_LE(engine.now(), 80e-6);
}

TEST(Transceiver, RejectsReconfigureWhileInFlight) {
  Transceiver trx(0);
  Rng rng(1);
  evsim::Engine engine;
  ASSERT_TRUE(trx.reconfigure(engine, OcsPath::kExternal1, rng, true));
  EXPECT_FALSE(trx.reconfigure(engine, OcsPath::kExternal2, rng, true));
}

TEST(Transceiver, FailureDropsInFlightCompletion) {
  Transceiver trx(0);
  Rng rng(1);
  evsim::Engine engine;
  bool done = false;
  trx.reconfigure(engine, OcsPath::kExternal1, rng, true, [&] { done = true; });
  trx.fail();
  engine.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(trx.state(), TrxState::kFailed);
}

TEST(Transceiver, FailAndRepairLifecycle) {
  Transceiver trx(0);
  Rng rng(1);
  trx.fail();
  EXPECT_FALSE(trx.healthy());
  EXPECT_FALSE(trx.reconfigure_now(OcsPath::kExternal1, rng).has_value());
  trx.repair();
  EXPECT_TRUE(trx.healthy());
  EXPECT_TRUE(trx.reconfigure_now(OcsPath::kExternal1, rng).has_value());
}

TEST(Bundle, AggregatesLineRate) {
  Bundle b(0, 0, 1, 8);
  EXPECT_DOUBLE_EQ(b.total_line_rate_gbps(), 6400.0);  // 8 x 800G = 6.4 Tbps
}

TEST(Bundle, SteerMovesAllMembers) {
  Bundle b(0, 0, 1, 8);
  Rng rng(1);
  const auto latency = b.steer(OcsPath::kExternal1, rng);
  ASSERT_TRUE(latency.has_value());
  EXPECT_DOUBLE_EQ(b.bandwidth_gbps(OcsPath::kExternal1), 6400.0);
  EXPECT_DOUBLE_EQ(b.bandwidth_gbps(OcsPath::kLoopback), 0.0);
}

TEST(Bundle, PartialFailureDegradesBandwidth) {
  Bundle b(0, 0, 1, 8);
  Rng rng(1);
  b.steer(OcsPath::kExternal1, rng);
  b.fail_one(3);
  EXPECT_FALSE(b.healthy());
  EXPECT_DOUBLE_EQ(b.bandwidth_gbps(OcsPath::kExternal1), 5600.0);
}

TEST(Bundle, HealthCountsFailedMembers) {
  Bundle b(0, 0, 1, 4);
  b.fail_one(1);
  b.fail_one(1);  // already failed: still one member down
  b.fail_one(2);
  EXPECT_FALSE(b.healthy());
  b.fail();
  EXPECT_FALSE(b.healthy());
  b.repair();
  EXPECT_TRUE(b.healthy());
  for (int i = 0; i < b.trx_count(); ++i) EXPECT_TRUE(b.trx(i).healthy());
}

TEST(Bundle, SteerFailsWhenMemberFailed) {
  Bundle b(0, 0, 1, 4);
  Rng rng(1);
  b.fail_one(0);
  EXPECT_FALSE(b.steer(OcsPath::kExternal2, rng).has_value());
  b.repair();
  EXPECT_TRUE(b.steer(OcsPath::kExternal2, rng).has_value());
}

TEST(Bundle, AsyncSteerCompletesViaBarrier) {
  Bundle b(0, 0, 1, 4);
  Rng rng(1);
  evsim::Engine engine;
  bool done = false;
  ASSERT_TRUE(b.steer_async(engine, OcsPath::kExternal1, rng, true,
                            [&] { done = true; }));
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(b.bandwidth_gbps(OcsPath::kExternal1), 3200.0);
}

TEST(FabricManager, RejectsBadConfigs) {
  EXPECT_THROW(NodeFabricManager(1, 1, 8), ConfigError);
  EXPECT_THROW(NodeFabricManager(4, 5, 8), ConfigError);
  EXPECT_THROW(NodeFabricManager(4, 4, 0), ConfigError);
}

TEST(FabricManager, SessionPreloadAndApply) {
  NodeFabricManager fm(4, 4, 2);
  Rng rng(1);
  Session ring;
  ring[0] = OcsPath::kExternal1;
  ring[1] = OcsPath::kExternal1;
  ring[2] = OcsPath::kLoopback;
  ring[3] = OcsPath::kLoopback;
  fm.preload_session("ring", ring);
  EXPECT_TRUE(fm.has_session("ring"));
  const auto latency = fm.apply_session("ring", rng);
  ASSERT_TRUE(latency.has_value());
  EXPECT_LE(*latency, 80e-6);  // fast switch: hardware latency only
  EXPECT_DOUBLE_EQ(fm.external_bandwidth_gbps(), 2 * 2 * 800.0);
}

TEST(FabricManager, UnknownSessionFails) {
  NodeFabricManager fm(4, 4, 1);
  Rng rng(1);
  EXPECT_FALSE(fm.has_session("nope"));
  EXPECT_FALSE(fm.apply_session("nope", rng).has_value());
}

TEST(FabricManager, RejectsSessionNamingMissingBundle) {
  // A session naming bundle 4 on a 4-bundle node could never apply; it is
  // refused at preload rather than failing every later switch.
  NodeFabricManager fm(4, 4, 1);
  Session bad;
  bad[0] = OcsPath::kExternal1;
  bad[4] = OcsPath::kLoopback;
  try {
    fm.preload_session("bad", bad);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bundle 4"), std::string::npos) << what;
    EXPECT_NE(what.find("has 4 bundles"), std::string::npos) << what;
  }
  EXPECT_FALSE(fm.has_session("bad"));
}

TEST(SessionId, InterningIsStableAndNameKeyedFormsForward) {
  const SessionId ring = intern_session("ring");
  EXPECT_EQ(intern_session("ring"), ring);
  EXPECT_FALSE(intern_session("park") == ring);
  EXPECT_EQ(session_name(ring), "ring");

  // Preloading by name and by id address the same slot, and both forms
  // draw the same switch latencies.
  NodeFabricManager by_name(4, 2, 2), by_id(4, 2, 2);
  Session s;
  s[1] = OcsPath::kExternal2;
  by_name.preload_session("ring", s);
  by_id.preload_session(ring, s);
  EXPECT_TRUE(by_name.has_session(ring));
  EXPECT_TRUE(by_id.has_session("ring"));
  Rng a(9), b(9);
  EXPECT_EQ(by_name.apply_session("ring", a), by_id.apply_session(ring, b));
  EXPECT_DOUBLE_EQ(by_id.bundle(1).bandwidth_gbps(OcsPath::kExternal2),
                   2 * 800.0);
  EXPECT_DOUBLE_EQ(by_id.bundle(0).bandwidth_gbps(OcsPath::kExternal2), 0.0);
}

TEST(FabricManager, AdhocPaysControlPlane) {
  NodeFabricManager fm(4, 2, 1);
  Rng rng(1);
  Session s;
  s[0] = OcsPath::kExternal2;
  const auto latency = fm.apply_adhoc(s, rng);
  ASSERT_TRUE(latency.has_value());
  EXPECT_GT(*latency, 500e-6);
}

TEST(FabricManager, ParkAllLoopback) {
  NodeFabricManager fm(4, 4, 2);
  Rng rng(1);
  fm.park_all_loopback(rng);
  EXPECT_DOUBLE_EQ(fm.external_bandwidth_gbps(), 0.0);
  for (int b = 0; b < fm.bundle_count(); ++b)
    EXPECT_DOUBLE_EQ(fm.bundle(b).bandwidth_gbps(OcsPath::kLoopback),
                     2 * 800.0);
}

TEST(FabricManager, HealthTracksBundles) {
  NodeFabricManager fm(4, 4, 1);
  EXPECT_TRUE(fm.healthy());
  fm.bundle(2).fail();
  EXPECT_FALSE(fm.healthy());
  fm.bundle(2).repair();
  EXPECT_TRUE(fm.healthy());
}

std::vector<NodeFabricManager> test_fleet(int nodes) {
  std::vector<NodeFabricManager> fleet;
  fleet.reserve(static_cast<std::size_t>(nodes));
  Session ring;
  ring[0] = OcsPath::kExternal1;
  ring[1] = OcsPath::kExternal2;
  Session park;
  park[0] = OcsPath::kLoopback;
  park[1] = OcsPath::kLoopback;
  for (int n = 0; n < nodes; ++n) {
    fleet.emplace_back(4, 2, 1);
    fleet.back().preload_session("ring", ring);
    fleet.back().preload_session("park", park);
  }
  return fleet;
}

TEST(ReconfigQueue, DrainsFifoWithinBatchBudget) {
  auto fleet = test_fleet(8);
  ReconfigQueue q(/*max_batch=*/3);
  Rng rng(1);
  for (int n = 0; n < 5; ++n) EXPECT_TRUE(q.enqueue(n, "ring", 1.0 + n));
  EXPECT_EQ(q.pending(), 5u);

  const auto first = q.drain_batch(fleet, 10.0, rng);
  ASSERT_EQ(first.size(), 3u);  // batch budget caps the drain
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(first[static_cast<std::size_t>(i)].request.node, i);
    EXPECT_TRUE(first[static_cast<std::size_t>(i)].ok());
    EXPECT_LE(*first[static_cast<std::size_t>(i)].switch_latency_s, 80e-6);
    EXPECT_DOUBLE_EQ(first[static_cast<std::size_t>(i)].drained_at, 10.0);
  }
  EXPECT_EQ(q.pending(), 2u);
  const auto rest = q.drain_batch(fleet, 11.0, rng);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].request.node, 3);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.drained(), 5u);
  EXPECT_EQ(q.failed(), 0u);
}

TEST(ReconfigQueue, CoalescesPerNodeKeepingOldestWait) {
  auto fleet = test_fleet(4);
  ReconfigQueue q;
  Rng rng(1);
  EXPECT_TRUE(q.enqueue(2, "ring", 1.0));
  EXPECT_TRUE(q.enqueue(0, "ring", 2.0));
  // Retarget node 2 while queued: no new entry, position and enqueue time
  // stay those of the original request, target becomes the latest ask.
  EXPECT_FALSE(q.enqueue(2, "park", 3.0));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.coalesced(), 1u);

  const auto out = q.drain_batch(fleet, 5.0, rng);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].request.node, 2);
  EXPECT_EQ(session_name(out[0].request.session), "park");
  EXPECT_DOUBLE_EQ(out[0].request.enqueued_at, 1.0);
  // Once drained, the node can be queued afresh.
  EXPECT_TRUE(q.enqueue(2, "ring", 6.0));
}

TEST(ReconfigQueue, ReportsFailuresWithoutStalling) {
  auto fleet = test_fleet(3);
  fleet[1].bundle(0).fail();
  ReconfigQueue q;
  Rng rng(1);
  q.enqueue(0, "ring", 0.0);
  q.enqueue(1, "ring", 0.0);   // touched bundle failed -> transient !ok()
  q.enqueue(2, "nope", 0.0);   // unknown session -> permanent !ok()
  q.enqueue(99, "ring", 0.0);  // out-of-fleet node -> permanent !ok()
  const auto out = q.drain_batch(fleet, 1.0, rng);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_FALSE(out[1].ok());
  EXPECT_TRUE(out[1].will_retry);  // hardware can recover: retry
  EXPECT_FALSE(out[2].ok());
  EXPECT_TRUE(out[2].permanent);  // a wrong request stays wrong: resolve
  EXPECT_FALSE(out[3].ok());
  EXPECT_TRUE(out[3].permanent);
  EXPECT_EQ(q.failed(), 3u);
  EXPECT_EQ(q.retrying(), 1u);
  EXPECT_EQ(q.drained(), 3u);  // node 1 is unresolved, not drained
  EXPECT_FALSE(q.empty());

  // The bundle comes back; the retry succeeds once its backoff elapses.
  fleet[1].bundle(0).repair();
  ASSERT_TRUE(q.next_retry_at().has_value());
  const auto again = q.drain_batch(fleet, *q.next_retry_at(), rng);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_TRUE(again[0].ok());
  EXPECT_EQ(again[0].request.node, 1);
  EXPECT_EQ(again[0].request.attempts, 2);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.drained(), 4u);
}

TEST(ReconfigQueue, NegativeAndFarNodesCoalesceAndResolvePermanent) {
  auto fleet = test_fleet(2);
  ReconfigQueue q;
  Rng rng(1);
  EXPECT_TRUE(q.enqueue(-3, "ring", 0.0));
  EXPECT_FALSE(q.enqueue(-3, "park", 0.5));  // same node: coalesced
  EXPECT_TRUE(q.enqueue(1, "ring", 1.0));
  EXPECT_TRUE(q.enqueue(1 << 30, "ring", 2.0));
  const auto out = q.drain_batch(fleet, 3.0, rng);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].request.node, -3);
  EXPECT_EQ(session_name(out[0].request.session), "park");
  EXPECT_TRUE(out[0].permanent);
  EXPECT_TRUE(out[1].ok());
  EXPECT_EQ(out[2].request.node, 1 << 30);
  EXPECT_TRUE(out[2].permanent);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.drained(), 3u);
  // Resolved strays free their coalescing key like any other node.
  EXPECT_TRUE(q.enqueue(-3, "ring", 4.0));
}

TEST(ReconfigQueue, BackoffScheduleIsCappedExponential) {
  RetryPolicy p;
  p.base_backoff = 2.0;
  p.backoff_factor = 2.0;
  p.max_backoff = 16.0;
  EXPECT_DOUBLE_EQ(p.backoff_for(1), 2.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(2), 4.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(3), 8.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(4), 16.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(5), 16.0);  // capped
  EXPECT_DOUBLE_EQ(p.backoff_for(50), 16.0);

  // The queue schedules exactly that ladder: each failed attempt's next
  // deadline is now + backoff_for(attempts so far).
  auto fleet = test_fleet(1);
  fleet[0].bundle(0).fail();
  p.max_attempts = 100;
  ReconfigQueue q(/*max_batch=*/4, p);
  Rng rng(1);
  q.enqueue(0, "ring", 0.0);
  double now = 0.0;
  const double expect_gap[] = {2.0, 4.0, 8.0, 16.0, 16.0};
  for (const double gap : expect_gap) {
    const auto out = q.drain_batch(fleet, now, rng);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].will_retry);
    ASSERT_TRUE(q.next_retry_at().has_value());
    EXPECT_DOUBLE_EQ(*q.next_retry_at(), now + gap);
    // Draining before the deadline is a no-op: the request backs off.
    EXPECT_TRUE(q.drain_batch(fleet, now + gap / 2, rng).empty());
    now = *q.next_retry_at();
  }
  EXPECT_EQ(q.retried(), 5u);
}

TEST(ReconfigQueue, DeadLettersAfterMaxAttempts) {
  auto fleet = test_fleet(2);
  fleet[1].bundle(1).fail();
  RetryPolicy p;
  p.max_attempts = 3;
  p.base_backoff = 1.0;
  p.backoff_factor = 2.0;
  p.max_backoff = 4.0;
  ReconfigQueue q(/*max_batch=*/4, p);
  Rng rng(1);
  q.enqueue(1, "ring", 0.0);
  double now = 0.0;
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const auto out = q.drain_batch(fleet, now, rng);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].request.attempts, attempt);
    EXPECT_FALSE(out[0].ok());
    if (attempt < 3) {
      EXPECT_TRUE(out[0].will_retry);
      now = *q.next_retry_at();
    } else {
      EXPECT_TRUE(out[0].dead_lettered);
      EXPECT_FALSE(out[0].will_retry);
    }
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.dead_lettered(), 1u);
  EXPECT_EQ(q.drained(), 1u);  // dead-lettering RESOLVES the request
  EXPECT_EQ(q.failed(), 3u);
  ASSERT_EQ(q.dead_letters().size(), 1u);
  EXPECT_EQ(q.dead_letters()[0].node, 1);
  EXPECT_EQ(session_name(q.dead_letters()[0].session), "ring");
  EXPECT_EQ(q.dead_letters()[0].attempts, 3);
  // The dead letter freed the coalescing key: the node can re-enqueue.
  EXPECT_TRUE(q.enqueue(1, "park", now));
}

TEST(ReconfigQueue, InjectedFailuresAreDeterministic) {
  fault::InjectionPlan plan;
  plan.session_failure_rate = 0.5;
  plan.seed = 7;
  // The plan is a pure hash: same (node, sequence) -> same verdict.
  for (int n = 0; n < 4; ++n) {
    for (std::uint64_t s = 0; s < 8; ++s) {
      EXPECT_EQ(plan.should_fail(n, s), plan.should_fail(n, s));
    }
  }

  // Two identical queues see identical injected-failure sequences.
  const auto run = [&] {
    auto fleet = test_fleet(8);
    ReconfigQueue q(/*max_batch=*/64, RetryPolicy{}, plan);
    Rng rng(3);
    for (int n = 0; n < 8; ++n) q.enqueue(n, "ring", 0.0);
    std::string verdicts;
    for (const auto& oc : q.drain_batch(fleet, 1.0, rng))
      verdicts += oc.injected ? 'x' : '.';
    return verdicts;
  };
  const std::string a = run();
  EXPECT_EQ(a, run());
  EXPECT_NE(a.find('x'), std::string::npos);  // rate 0.5 over 8 draws
  EXPECT_NE(a.find('.'), std::string::npos);

  // rate = 1 fails every attempt until the dead-letter gives up.
  plan.session_failure_rate = 1.0;
  auto fleet = test_fleet(1);
  RetryPolicy p;
  p.max_attempts = 4;
  ReconfigQueue q(/*max_batch=*/4, p, plan);
  Rng rng(3);
  q.enqueue(0, "ring", 0.0);
  double now = 0.0;
  while (!q.empty()) {
    q.drain_batch(fleet, now, rng);
    now = q.next_retry_at().value_or(now + 1.0);
  }
  EXPECT_EQ(q.injected(), 4u);
  EXPECT_EQ(q.dead_lettered(), 1u);
}

TEST(ReconfigQueue, CoalescingOntoBackoffKeepsSlotButResetsBudget) {
  auto fleet = test_fleet(2);
  fleet[0].bundle(0).fail();
  RetryPolicy p;
  p.max_attempts = 3;
  p.base_backoff = 2.0;
  p.max_backoff = 8.0;
  ReconfigQueue q(/*max_batch=*/4, p);
  Rng rng(1);
  q.enqueue(0, "ring", 0.0);
  auto out = q.drain_batch(fleet, 1.0, rng);
  ASSERT_TRUE(out[0].will_retry);
  const double deadline = *q.next_retry_at();

  // Retarget while backing off: no new entry, the backoff slot and the
  // original enqueue time survive, but the attempt budget is fresh (the
  // intent is new).
  EXPECT_FALSE(q.enqueue(0, "park", 2.0));
  EXPECT_EQ(q.coalesced(), 1u);
  EXPECT_DOUBLE_EQ(*q.next_retry_at(), deadline);

  fleet[0].bundle(0).repair();
  out = q.drain_batch(fleet, deadline, rng);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_EQ(session_name(out[0].request.session), "park");
  EXPECT_DOUBLE_EQ(out[0].request.enqueued_at, 0.0);
  EXPECT_EQ(out[0].request.attempts, 1);  // budget was reset on coalesce
}

TEST(ReconfigQueue, PromotedRetriesKeepDeadlineOrder) {
  auto fleet = test_fleet(4);
  fleet[2].bundle(0).fail();
  fleet[3].bundle(0).fail();
  RetryPolicy p;
  p.base_backoff = 2.0;
  p.max_backoff = 8.0;
  p.max_attempts = 5;
  ReconfigQueue q(/*max_batch=*/8, p);
  Rng rng(1);
  // Node 3 fails first (earlier deadline), then node 2 one drain later.
  q.enqueue(3, "ring", 0.0);
  q.drain_batch(fleet, 0.0, rng);        // 3 -> retry at 2.0
  q.enqueue(2, "ring", 0.5);
  q.drain_batch(fleet, 0.5, rng);        // 2 -> retry at 2.5
  q.enqueue(1, "ring", 1.0);             // fresh arrival
  fleet[2].bundle(0).repair();
  fleet[3].bundle(0).repair();
  // At 3.0 both retries are due: they rejoin ahead-of-batch in deadline
  // order (3 before 2), after the already-ready fresh arrival.
  const auto out = q.drain_batch(fleet, 3.0, rng);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].request.node, 1);
  EXPECT_EQ(out[1].request.node, 3);
  EXPECT_EQ(out[2].request.node, 2);
  for (const auto& oc : out) EXPECT_TRUE(oc.ok());
  EXPECT_TRUE(q.empty());
}

TEST(ReconfigQueue, DrainVisitsEachAttemptAfterItsBookkeeping) {
  auto fleet = test_fleet(3);
  fleet[1].bundle(0).fail();
  ReconfigQueue q;
  Rng rng(1);
  q.enqueue(0, "ring", 0.0);
  q.enqueue(1, "ring", 0.0);
  q.enqueue(2, "nope", 0.0);
  std::vector<int> nodes;
  q.drain(fleet, 1.0, rng, [&](const ReconfigOutcome& oc) {
    nodes.push_back(oc.request.node);
    // The queue has already counted and re-queued this attempt.
    if (oc.request.node == 1) {
      EXPECT_TRUE(oc.will_retry);
      EXPECT_EQ(q.retrying(), 1u);
      EXPECT_EQ(q.retried(), 1u);
    }
    EXPECT_EQ(q.drained() + q.retrying(), nodes.size());
  });
  EXPECT_EQ(nodes, (std::vector<int>{0, 1, 2}));
}

TEST(ReconfigQueueDeathTest, VisitorMayNotEnqueueOrReenterDrain) {
  auto fleet = test_fleet(2);
  Rng rng(1);
  EXPECT_DEATH(
      {
        ReconfigQueue q;
        q.enqueue(0, "ring", 0.0);
        q.drain(fleet, 1.0, rng, [&](const ReconfigOutcome&) {
          q.enqueue(1, "ring", 1.0);
        });
      },
      "precondition");
  EXPECT_DEATH(
      {
        ReconfigQueue q;
        q.enqueue(0, "ring", 0.0);
        q.drain(fleet, 1.0, rng, [&](const ReconfigOutcome&) {
          q.drain(fleet, 1.0, rng, [](const ReconfigOutcome&) {});
        });
      },
      "precondition");
  // After a drain returns, both are allowed again.
  ReconfigQueue q;
  q.enqueue(0, "ring", 0.0);
  q.drain(fleet, 1.0, rng, [](const ReconfigOutcome&) {});
  EXPECT_TRUE(q.enqueue(0, "park", 2.0));
  EXPECT_EQ(q.drain_batch(fleet, 3.0, rng).size(), 1u);
}

// --- Fleet: the flat actuator state against the object model ----------------

/// A Fleet and a vector of NodeFabricManagers of the same shape, changed
/// in lockstep.
struct TwinFleets {
  TwinFleets(int nodes, int bundles, int trx)
      : model(std::make_shared<const TrxModel>(TrxConfig{})),
        flat(nodes, kGpus, bundles, trx, model) {
    for (int n = 0; n < nodes; ++n)
      objects.emplace_back(kGpus, bundles, trx, model);
  }
  void preload(SessionId id, const Session& s) {
    flat.preload_session(id, s);
    for (auto& fm : objects) fm.preload_session(id, s);
  }
  void set_down(int node, bool down) {
    if (down) {
      flat.fail_node(node);
    } else {
      flat.repair_node(node);
    }
    NodeFabricManager& fm = objects[static_cast<std::size_t>(node)];
    for (int b = 0; b < fm.bundle_count(); ++b) {
      if (down) {
        fm.bundle(b).fail();
      } else {
        fm.bundle(b).repair();
      }
    }
  }

  static constexpr int kGpus = 8;
  std::shared_ptr<const TrxModel> model;
  Fleet flat;
  std::vector<NodeFabricManager> objects;
};

/// A session over `bundles` bundles with random cells (absent = keep).
Session random_session(int bundles, Rng& rng) {
  static constexpr OcsPath kPaths[] = {OcsPath::kExternal1,
                                       OcsPath::kExternal2, OcsPath::kLoopback};
  Session s;
  for (int b = 0; b < bundles; ++b) {
    const auto pick = rng.uniform_index(4);
    if (pick < 3) s[static_cast<std::uint32_t>(b)] = kPaths[pick];
  }
  return s;
}

TEST(Fleet, RejectsBadShapesAndSessions) {
  const auto model = std::make_shared<const TrxModel>(TrxConfig{});
  EXPECT_THROW(Fleet(4, 1, 1, 8, model), ConfigError);
  EXPECT_THROW(Fleet(4, 4, 5, 8, model), ConfigError);
  EXPECT_THROW(Fleet(4, 4, 0, 8, model), ConfigError);
  EXPECT_THROW(Fleet(4, 4, 4, 0, model), ConfigError);
  EXPECT_THROW(Fleet(4, 4, 4, 256, model), ConfigError);

  // Same refusal, same message as NodeFabricManager::preload_session.
  Fleet fleet(2, 4, 4, 1, model);
  Session bad;
  bad[4] = OcsPath::kLoopback;
  try {
    fleet.preload_session(intern_session("bad"), bad);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bad'"), std::string::npos) << what;
    EXPECT_NE(what.find("bundle 4"), std::string::npos) << what;
    EXPECT_NE(what.find("has 4 bundles"), std::string::npos) << what;
  }
  EXPECT_FALSE(fleet.has_session(0, intern_session("bad")));
  // Out-of-fleet nodes have no sessions.
  fleet.preload_session(intern_session("ring"), Session{});
  EXPECT_TRUE(fleet.has_session(1, intern_session("ring")));
  EXPECT_FALSE(fleet.has_session(2, intern_session("ring")));
  EXPECT_FALSE(fleet.has_session(-1, intern_session("ring")));
}

TEST(Fleet, MatchesObjectModelUnderRandomOps) {
  // Random preload / fail / repair / apply sequences: every apply returns
  // the object model's optional latency, and both Rngs stay in lockstep
  // (a member whose path diverged would draw on one side only).
  const SessionId ids[] = {intern_session("twin_a"), intern_session("twin_b"),
                           intern_session("twin_c"),
                           intern_session("twin_never_loaded")};
  for (const auto& [bundles, trx] : {std::pair{2, 1}, std::pair{4, 8}}) {
    SCOPED_TRACE(std::to_string(bundles) + "x" + std::to_string(trx));
    constexpr int kNodes = 12;
    TwinFleets twins(kNodes, bundles, trx);
    Rng ops(static_cast<std::uint64_t>(bundles * 100 + trx));
    Rng a(5), b(5);
    int applied = 0;
    for (int step = 0; step < 4000; ++step) {
      const auto op = ops.uniform_index(12);
      const int node = static_cast<int>(ops.uniform_index(kNodes));
      if (op == 0) {
        twins.preload(ids[ops.uniform_index(3)], random_session(bundles, ops));
      } else if (op <= 2) {
        twins.set_down(node, op == 1);
      } else {
        const SessionId id = ids[ops.uniform_index(4)];
        const auto flat = twins.flat.apply_session(node, id, a);
        const auto object =
            twins.objects[static_cast<std::size_t>(node)].apply_session(id, b);
        ASSERT_EQ(flat, object) << "step " << step;
        if (flat) ++applied;
      }
      ASSERT_EQ(a.state(), b.state()) << "step " << step;
    }
    EXPECT_GT(applied, 1000);
  }
}

/// Everything an outcome reports, for whole-value comparison.
auto outcome_key(const ReconfigOutcome& oc) {
  return std::make_tuple(oc.request.node, oc.request.session.index,
                         oc.request.enqueued_at, oc.request.attempts,
                         oc.request.not_before, oc.drained_at,
                         oc.switch_latency_s, oc.injected, oc.permanent,
                         oc.will_retry, oc.dead_lettered);
}

TEST(Fleet, DrainBatchMatchesObjectModel) {
  // The same request stream, faults, injection plan and retry policy
  // drained over either fleet type: identical outcomes and counters.
  const SessionId ring = intern_session("ring");
  const SessionId park = intern_session("park");
  const SessionId nope = intern_session("nope");
  for (const auto& [bundles, trx] : {std::pair{2, 1}, std::pair{4, 8}}) {
    SCOPED_TRACE(std::to_string(bundles) + "x" + std::to_string(trx));
    constexpr int kNodes = 24;
    TwinFleets twins(kNodes, bundles, trx);
    Session ring_s, park_s;
    for (int b = 0; b < bundles; ++b) {
      ring_s[static_cast<std::uint32_t>(b)] =
          b % 2 == 0 ? OcsPath::kExternal1 : OcsPath::kExternal2;
      park_s[static_cast<std::uint32_t>(b)] = OcsPath::kLoopback;
    }
    twins.preload(ring, ring_s);
    twins.preload(park, park_s);

    RetryPolicy retry;
    retry.max_attempts = 3;
    retry.base_backoff = 2.0;
    retry.max_backoff = 8.0;
    fault::InjectionPlan inject;
    inject.session_failure_rate = 0.10;
    inject.seed = 21;
    ReconfigQueue flat_q(/*max_batch=*/8, retry, inject);
    ReconfigQueue object_q(/*max_batch=*/8, retry, inject);
    Rng ops(3), a(9), b(9);
    std::size_t outcomes = 0;
    std::vector<ReconfigOutcome> flat_out;
    for (int tick = 0; tick < 600; ++tick) {
      const double now = tick;
      for (int r = 0; r < 6; ++r) {
        // Mostly fleet nodes; now and then one outside it or an unknown
        // session, which resolve as permanent failures.
        const int node = static_cast<int>(ops.uniform_index(kNodes + 2));
        const auto pick = ops.uniform_index(20);
        const SessionId id = pick == 0 ? nope : pick % 2 == 0 ? ring : park;
        ASSERT_EQ(flat_q.enqueue(node, id, now),
                  object_q.enqueue(node, id, now));
      }
      if (ops.bernoulli(0.3)) {
        twins.set_down(static_cast<int>(ops.uniform_index(kNodes)),
                       ops.bernoulli(0.5));
      }
      flat_out.clear();
      flat_q.drain(twins.flat, now, a, [&](const ReconfigOutcome& oc) {
        flat_out.push_back(oc);
      });
      const auto object_out = object_q.drain_batch(twins.objects, now, b);
      ASSERT_EQ(flat_out.size(), object_out.size()) << "tick " << tick;
      for (std::size_t i = 0; i < flat_out.size(); ++i)
        ASSERT_TRUE(outcome_key(flat_out[i]) == outcome_key(object_out[i]))
            << "tick " << tick << " outcome " << i;
      ASSERT_EQ(a.state(), b.state()) << "tick " << tick;
      outcomes += flat_out.size();
    }
    EXPECT_GT(outcomes, 3000u);
    EXPECT_EQ(flat_q.enqueued(), object_q.enqueued());
    EXPECT_EQ(flat_q.coalesced(), object_q.coalesced());
    EXPECT_EQ(flat_q.drained(), object_q.drained());
    EXPECT_EQ(flat_q.failed(), object_q.failed());
    EXPECT_EQ(flat_q.retried(), object_q.retried());
    EXPECT_EQ(flat_q.dead_lettered(), object_q.dead_lettered());
    EXPECT_EQ(flat_q.injected(), object_q.injected());
    EXPECT_EQ(flat_q.pending(), object_q.pending());
    // The stream exercised every outcome kind.
    EXPECT_GT(flat_q.injected(), 0u);
    EXPECT_GT(flat_q.retried(), 0u);
    EXPECT_GT(flat_q.dead_lettered(), 0u);
  }
}

}  // namespace
}  // namespace ihbd::ocstrx
