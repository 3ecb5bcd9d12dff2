#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.h"
#include "src/common/serde.h"
#include "src/ctrl/control_plane.h"
#include "src/ctrl/slo.h"
#include "src/ctrl/workload.h"
#include "src/fault/generator.h"
#include "src/fault/physics_generator.h"
#include "src/fault/trace.h"
#include "src/obs/metrics.h"
#include "src/runtime/sweep.h"

namespace ihbd::ctrl {
namespace {

// --- SloHistogram -----------------------------------------------------------

TEST(SloHistogram, QuantilesAreBucketUpperBounds) {
  SloHistogram h;
  for (int i = 0; i < 90; ++i) h.observe(1.0);    // bucket upper bound 1.0
  for (int i = 0; i < 9; ++i) h.observe(100.0);   // (64, 128]
  h.observe(100000.0);                            // (65536, 131072]
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 128.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 131072.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 131072.0);
}

TEST(SloHistogram, EmptyAndNaNAndMerge) {
  SloHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  h.observe(std::nan(""));  // dropped, like obs::Histogram
  EXPECT_EQ(h.count(), 0u);
  h.observe(2.0);
  SloHistogram other;
  other.observe(8.0);
  other.observe(8.0);
  h.merge(other);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 18.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 8.0);
}

TEST(SloHistogram, InfinityLandsInTheLastBucket) {
  SloHistogram h;
  for (int i = 0; i < 3; ++i) h.observe(1.0);
  h.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.buckets()[obs::kHistogramBuckets - 1], 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 1.0);
  // The unbounded last bucket reports its lower bound, 2^30 s.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), std::ldexp(1.0, 30));
}

std::string slo_bytes(const SloHistogram& h) {
  serde::Writer w;
  h.save(w);
  return w.take();
}

SloHistogram slo_of(std::initializer_list<double> xs) {
  SloHistogram h;
  for (const double x : xs) h.observe(x);
  return h;
}

TEST(SloHistogram, SavedBytesCoverCountSumAndBuckets) {
  // The layout: count, sum, the number of non-empty buckets, then each as
  // (index, count). Count is the sum of the buckets, so no histogram
  // differs in count alone; this check is what pins it.
  const SloHistogram h = slo_of({1.0, 3.0});
  serde::Writer want;
  want.u64(2);
  want.f64(4.0);
  want.u32(2);
  for (const double x : {1.0, 3.0}) {
    want.u32(static_cast<std::uint32_t>(obs::Histogram::bucket_of(x)));
    want.u64(1);
  }
  EXPECT_EQ(slo_bytes(h), want.buffer());

  // Each variant differs from h in one member; a save() that skipped the
  // member would give h's bytes.
  const SloHistogram other_sum = slo_of({1.0, 3.5});
  ASSERT_EQ(other_sum.buckets(), h.buckets());
  EXPECT_NE(slo_bytes(other_sum), slo_bytes(h)) << "sum is not saved";
  const SloHistogram other_buckets = slo_of({2.0, 2.0});
  ASSERT_EQ(other_buckets.count(), h.count());
  ASSERT_EQ(other_buckets.sum(), h.sum());
  EXPECT_NE(slo_bytes(other_buckets), slo_bytes(h))
      << "buckets are not saved";
}

// --- workload ---------------------------------------------------------------

TEST(Workload, DeterministicAndInBounds) {
  WorkloadConfig cfg;
  cfg.arrival_rate_per_day = 50.0;
  cfg.duration_days = 10.0;
  cfg.min_groups = 2;
  cfg.max_groups = 5;
  Rng a(7), b(7);
  const auto w1 = generate_workload(cfg, a);
  const auto w2 = generate_workload(cfg, b);
  ASSERT_EQ(w1.size(), w2.size());
  ASSERT_GT(w1.size(), 300u);  // ~500 expected
  double prev = 0.0;
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i].day, w2[i].day);
    EXPECT_EQ(w1[i].run_days, w2[i].run_days);
    EXPECT_EQ(w1[i].groups, w2[i].groups);
    EXPECT_EQ(w1[i].id, static_cast<int>(i));
    EXPECT_GE(w1[i].day, prev);
    EXPECT_LT(w1[i].day, 10.0);
    EXPECT_GE(w1[i].groups, 2);
    EXPECT_LE(w1[i].groups, 5);
    EXPECT_GT(w1[i].run_days, 0.0);
    prev = w1[i].day;
  }
}

// --- control plane ----------------------------------------------------------

ControlPlaneConfig small_config() {
  ControlPlaneConfig cfg;
  cfg.node_count = 256;
  cfg.nodes_per_tor = 4;
  cfg.tors_per_domain = 16;
  cfg.k = 2;
  cfg.gpus_per_node = 4;
  cfg.reconfig_batch = 32;
  return cfg;
}

std::vector<JobArrival> small_workload(double duration_days,
                                       double rate = 40.0,
                                       std::uint64_t seed = 5) {
  WorkloadConfig wl;
  wl.arrival_rate_per_day = rate;
  wl.duration_days = duration_days;
  wl.tp_size_gpus = 32;  // m = 8 nodes per group
  wl.min_groups = 1;
  wl.max_groups = 3;
  wl.mean_run_days = 0.05;
  Rng rng(seed);
  return generate_workload(wl, rng);
}

/// perfbench's per-trial accounting identities, which every plane run must
/// hold: each enqueued reconfig is resolved or still pending at the horizon,
/// the two wait histograms partition the starts, and no job completes
/// without starting.
void expect_accounting(const ControlPlaneResult& r) {
  EXPECT_EQ(r.reconfig_drained + r.reconfig_pending_end, r.reconfig_enqueued);
  EXPECT_EQ(r.starts, r.job_wait_s.count() + r.job_wait_degraded_s.count());
  EXPECT_LE(r.completions, r.starts);
}

/// run_control_plane, checked against the accounting identities.
ControlPlaneResult run_checked(const ControlPlaneConfig& cfg,
                               const fault::FaultTrace& trace,
                               const std::vector<JobArrival>& arrivals) {
  ControlPlaneResult r = run_control_plane(cfg, trace, arrivals);
  expect_accounting(r);
  return r;
}

std::string result_bytes(const ControlPlaneResult& r) {
  serde::Writer w;
  r.save(w);
  return w.take();
}

TEST(ControlPlane, FaultFreeRunCompletesEveryJob) {
  const fault::FaultTrace trace(256, 8.0, {});
  const auto arrivals = small_workload(8.0);
  auto result = run_checked(small_config(), trace, arrivals);

  EXPECT_EQ(result.arrivals, arrivals.size());
  EXPECT_EQ(result.preemptions, 0u);
  EXPECT_EQ(result.fault_transitions, 0u);
  // Light load on a healthy fleet: everything submitted early finishes;
  // at most the last few arrivals can straddle the horizon.
  EXPECT_GE(result.completions + 5, result.arrivals);
  EXPECT_EQ(result.unfinished, result.arrivals - result.completions);
  EXPECT_GE(result.starts, result.completions);
  EXPECT_GT(result.events, arrivals.size());  // arrivals + drains + ...
  // Every started job steered its nodes through the batched queue.
  EXPECT_GT(result.reconfig_enqueued, 0u);
  EXPECT_EQ(result.reconfig_drained,
            result.reconfig_enqueued);  // queue fully drained
  EXPECT_EQ(result.reconfig_failed, 0u);
  EXPECT_EQ(result.job_wait_s.count(), result.starts);
  // Job wait = drain latency on an idle queue: within a few drain periods.
  EXPECT_LT(result.job_wait_s.quantile(0.99), 16.0);
  EXPECT_GT(result.reconfig_latency_s.count(), 0u);
  // Reconfig latency: batching delay (~1 s drain tick) + 60-80 us switch.
  EXPECT_LT(result.reconfig_latency_s.quantile(0.999), 16.0);
}

TEST(ControlPlane, DeterministicAcrossRuns) {
  const fault::FaultTrace trace(
      256, 6.0, {{3, 1.0, 3.0}, {40, 2.0, 4.0}, {41, 2.5, 5.5}});
  const auto arrivals = small_workload(6.0);
  const auto a = run_checked(small_config(), trace, arrivals);
  const auto b = run_checked(small_config(), trace, arrivals);
  EXPECT_EQ(result_bytes(a), result_bytes(b));  // byte-identical
}

TEST(ControlPlane, FaultBurstPreemptsAndRecovers) {
  // Kill half the fleet mid-run under near-saturating load: jobs must be
  // preempted (cancelling their completion events), then recover capacity
  // after the repair.
  std::vector<fault::FaultEvent> events;
  for (int n = 0; n < 128; ++n) events.push_back({n, 2.0, 4.0});
  const fault::FaultTrace trace(256, 10.0, events);
  const auto arrivals = small_workload(10.0, /*rate=*/250.0);
  auto cfg = small_config();
  auto result = run_checked(cfg, trace, arrivals);

  EXPECT_EQ(result.fault_transitions, 256u);
  EXPECT_GT(result.preemptions, 0u);
  EXPECT_GT(result.placement_churn, 0u);
  EXPECT_GT(result.completions, arrivals.size() / 2);
  // Faults landed while reconfigs were in flight at least once in a while:
  // the queue reports them rather than stalling.
  EXPECT_EQ(result.reconfig_drained, result.reconfig_enqueued);
}

TEST(ControlPlane, CoalescingKicksInUnderChurn) {
  // Tiny drain budget + rapid job turnover: park/steer requests for the
  // same node overlap in the queue and coalesce.
  std::vector<fault::FaultEvent> events;
  for (int n = 0; n < 32; ++n)
    events.push_back({n, 1.0 + 0.05 * n, 1.5 + 0.05 * n});
  const fault::FaultTrace trace(256, 8.0, events);
  const auto arrivals = small_workload(8.0, /*rate=*/150.0);
  auto cfg = small_config();
  cfg.reconfig_batch = 4;
  cfg.drain_period_days = 8.0 / 86400.0;
  auto result = run_checked(cfg, trace, arrivals);
  EXPECT_GT(result.reconfig_coalesced, 0u);
  EXPECT_EQ(result.reconfig_drained, result.reconfig_enqueued);
  EXPECT_GT(result.peak_reconfig_depth, 4u);
}

TEST(ControlPlane, RejectsMismatchedTraceAndMixedTp) {
  const fault::FaultTrace trace(128, 4.0, {});
  EXPECT_THROW(run_control_plane(small_config(), trace, small_workload(4.0)),
               ConfigError);
  const fault::FaultTrace ok_trace(256, 4.0, {});
  auto arrivals = small_workload(4.0);
  arrivals[1].tp_size_gpus = 64;
  EXPECT_THROW(run_control_plane(small_config(), ok_trace, arrivals),
               ConfigError);
}

/// Constructing a plane from `cfg` throws a ConfigError naming
/// ControlPlaneConfig.`field`.
void expect_rejected(const ControlPlaneConfig& cfg, const std::string& field) {
  const fault::FaultTrace trace(cfg.node_count, 1.0, {});
  try {
    ControlPlane plane(cfg, trace, small_workload(1.0));
    ADD_FAILURE() << field << " accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("ControlPlaneConfig." + field + " "),
              std::string::npos)
        << e.what();
  }
}

TEST(ControlPlane, RejectsMalformedConfigNamingTheField) {
  const auto with = [](auto&& edit) {
    ControlPlaneConfig cfg = small_config();
    edit(cfg);
    return cfg;
  };
  // A zero drain period would re-arm the drain at the same instant
  // forever while a request backs off.
  for (const double period : {0.0, -1.0 / 86400.0, std::nan("")}) {
    expect_rejected(with([&](auto& c) { c.drain_period_days = period; }),
                    "drain_period_days");
  }
  expect_rejected(with([](auto& c) { c.reconfig_batch = 0; }),
                  "reconfig_batch");
  expect_rejected(with([](auto& c) { c.gpus_per_node = 1; }), "gpus_per_node");
  expect_rejected(with([](auto& c) { c.bundles_per_node = 0; }),
                  "bundles_per_node");
  expect_rejected(with([](auto& c) { c.bundles_per_node = 5; }),
                  "bundles_per_node");
  expect_rejected(with([](auto& c) { c.trx_per_bundle = 0; }),
                  "trx_per_bundle");
  expect_rejected(
      with([](auto& c) { c.inject.session_failure_rate = 1.5; }),
      "inject.session_failure_rate");
  expect_rejected(with([](auto& c) { c.retry.max_attempts = 0; }),
                  "retry.max_attempts");
}

TEST(ControlPlane, RejectsArrivalIdsThatAreNotTheirIndex) {
  const fault::FaultTrace trace(256, 4.0, {});
  auto arrivals = small_workload(4.0);
  arrivals[1].id = 7;
  EXPECT_THROW(ControlPlane(small_config(), trace, arrivals), ConfigError);
}

TEST(ControlPlane, DepthCountersAgreeWithFaultyAtUnderNestedIntervals) {
  // Regression for the overlap contract in src/fault/trace.h: the plane's
  // per-node depth counters must reproduce FaultTrace::faulty_at exactly
  // when intervals on one node nest or overlap. Interval endpoints sit off
  // the 0.25-day sampler grid so the probe never races a same-instant
  // fault edge.
  const fault::FaultTrace trace(256, 8.0,
                                {{3, 1.1, 5.3},    // outer
                                 {3, 2.2, 3.7},    // nested: no 1->0 edge
                                 {3, 4.9, 6.1},    // overlaps the outer tail
                                 {7, 2.2, 2.9},
                                 {7, 2.9, 3.3}});  // back-to-back, no gap
  const auto arrivals = small_workload(8.0);
  ControlPlane plane(small_config(), trace, arrivals);
  int probes = 0;
  plane.health_probe = [&](const ControlPlane& p, double day) {
    const auto expect = trace.faulty_at(day);
    for (int n = 0; n < 256; ++n)
      ASSERT_EQ(p.node_faulty(n), expect.test(n))
          << "node " << n << " at day " << day;
    ++probes;
  };
  expect_accounting(plane.run());
  EXPECT_GE(probes, 30);  // the 0.25-day sampler covered the horizon
}

TEST(ControlPlane, InjectedFailuresRetryToConvergence) {
  // 10% of session switches fail transiently: every run must still
  // complete, retries must converge (nothing left in flight beyond the
  // horizon's pending tail), and the whole thing stays byte-deterministic.
  const fault::FaultTrace trace(
      256, 8.0, {{3, 1.1, 3.0}, {40, 2.0, 4.0}, {41, 2.5, 5.5}});
  const auto arrivals = small_workload(8.0, /*rate=*/120.0);
  auto cfg = small_config();
  cfg.inject.session_failure_rate = 0.10;
  cfg.inject.seed = 17;
  const auto a = run_checked(cfg, trace, arrivals);
  const auto b = run_checked(cfg, trace, arrivals);
  EXPECT_EQ(result_bytes(a), result_bytes(b));

  EXPECT_GT(a.reconfig_injected, 0u);
  EXPECT_GT(a.reconfig_retried, 0u);
  // At 10% per attempt with the default 6-attempt budget, dead letters are
  // ~1e-6 likely per request; retried successes land in the retried split.
  EXPECT_GT(a.reconfig_latency_retried_s.count(), 0u);
  // The run makes progress comparable to fault-free despite the injection.
  EXPECT_GT(a.completions, arrivals.size() / 2);
}

TEST(ControlPlane, DeadLettersDegradeJobsInsteadOfStalling) {
  // Brutal injection (every switch fails) with a 2-attempt budget: steers
  // dead-letter, jobs start anyway on their last good placement, and their
  // waits land in the degraded SLO split — the run never stalls.
  const fault::FaultTrace trace(256, 8.0, {});
  const auto arrivals = small_workload(8.0);
  auto cfg = small_config();
  cfg.inject.session_failure_rate = 1.0;
  cfg.inject.seed = 3;
  cfg.retry.max_attempts = 2;
  const auto r = run_checked(cfg, trace, arrivals);

  EXPECT_GT(r.reconfig_dead_lettered, 0u);
  EXPECT_GT(r.degraded_starts, 0u);
  EXPECT_EQ(r.job_wait_degraded_s.count(), r.degraded_starts);
  // Degraded or not, the light-load invariant holds: everything submitted
  // early still finishes.
  EXPECT_GE(r.completions + 5, r.arrivals);
}

TEST(ControlPlane, MergeFoldsCountersAndHistograms) {
  const fault::FaultTrace trace(256, 4.0, {{9, 1.0, 2.0}});
  const auto a = run_checked(small_config(), trace, small_workload(4.0));
  const auto b =
      run_checked(small_config(), trace, small_workload(4.0, 40.0, 9));

  auto merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.arrivals, a.arrivals + b.arrivals);
  EXPECT_EQ(merged.events, a.events + b.events);
  EXPECT_EQ(merged.job_wait_s.count(),
            a.job_wait_s.count() + b.job_wait_s.count());
  EXPECT_EQ(merged.peak_pending_jobs,
            std::max(a.peak_pending_jobs, b.peak_pending_jobs));
  expect_accounting(merged);
}

TEST(ControlPlane, SavedBytesCoverEveryField) {
  // Each variant changes one member of a result; a save() that skipped the
  // member would give the base bytes. The size check fails when a member
  // is added without a row here.
  constexpr std::array counters = {
      &ControlPlaneResult::events,
      &ControlPlaneResult::arrivals,
      &ControlPlaneResult::starts,
      &ControlPlaneResult::completions,
      &ControlPlaneResult::preemptions,
      &ControlPlaneResult::unfinished,
      &ControlPlaneResult::fault_transitions,
      &ControlPlaneResult::placement_churn,
      &ControlPlaneResult::reconfig_enqueued,
      &ControlPlaneResult::reconfig_coalesced,
      &ControlPlaneResult::reconfig_drained,
      &ControlPlaneResult::reconfig_failed,
      &ControlPlaneResult::reconfig_retried,
      &ControlPlaneResult::reconfig_dead_lettered,
      &ControlPlaneResult::reconfig_injected,
      &ControlPlaneResult::reconfig_pending_end,
      &ControlPlaneResult::reconfig_batches,
      &ControlPlaneResult::degraded_starts,
      &ControlPlaneResult::peak_pending_jobs,
      &ControlPlaneResult::peak_reconfig_depth,
  };
  constexpr std::array histograms = {
      &ControlPlaneResult::job_wait_s,
      &ControlPlaneResult::job_wait_degraded_s,
      &ControlPlaneResult::reconfig_latency_s,
      &ControlPlaneResult::reconfig_latency_retried_s,
  };
  static_assert(sizeof(ControlPlaneResult) ==
                counters.size() * sizeof(std::uint64_t) +
                    histograms.size() * sizeof(SloHistogram));

  ControlPlaneResult base;
  for (std::size_t i = 0; i < counters.size(); ++i) base.*counters[i] = i;
  for (const auto histogram : histograms) (base.*histogram).observe(1.0);
  const std::string base_bytes = result_bytes(base);
  for (std::size_t i = 0; i < counters.size(); ++i) {
    ControlPlaneResult r = base;
    ++(r.*counters[i]);
    EXPECT_NE(result_bytes(r), base_bytes) << "counter " << i;
  }
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    ControlPlaneResult r = base;
    (r.*histograms[i]).observe(2.0);
    EXPECT_NE(result_bytes(r), base_bytes) << "histogram " << i;
  }
}

/// `h` holds exactly the buckets of `a` and `b` added together.
void expect_fold(const obs::Histogram& h, const SloHistogram& a,
                 const SloHistogram& b) {
  ASSERT_GT(a.count(), 0u);
  ASSERT_GT(b.count(), 0u);
  EXPECT_EQ(h.count(), a.count() + b.count());
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i)
    EXPECT_EQ(h.bucket_count(i), a.buckets()[i] + b.buckets()[i])
        << "bucket " << i;
  // Shard sums add in unspecified order: tolerance, not equality.
  EXPECT_NEAR(h.sum(), a.sum() + b.sum(), 1e-9 * (a.sum() + b.sum()));
}

TEST(ControlPlane, ObsHistogramsAreTheFoldOfTheSloHistograms) {
  // With obs on, a run adds its SLO histograms into the two ctrl.*
  // histograms once, at the end: the first-try and retried latency splits
  // into ctrl.reconfig_latency_seconds, the clean and degraded waits into
  // ctrl.job_wait_seconds. Injection with a 2-attempt budget fills all four.
  obs::reset();
  obs::set_enabled(true);
  const fault::FaultTrace trace(256, 8.0, {{3, 1.1, 3.0}, {40, 2.0, 4.0}});
  auto cfg = small_config();
  cfg.inject.session_failure_rate = 0.3;
  cfg.inject.seed = 17;
  cfg.retry.max_attempts = 2;
  const auto r = run_checked(cfg, trace, small_workload(8.0, 120.0));
  obs::set_enabled(false);
  expect_fold(obs::histogram("ctrl.reconfig_latency_seconds"),
              r.reconfig_latency_s, r.reconfig_latency_retried_s);
  expect_fold(obs::histogram("ctrl.job_wait_seconds"), r.job_wait_s,
              r.job_wait_degraded_s);
  obs::reset();
}

// --- golden result bytes ----------------------------------------------------

/// FNV-1a 64 over the serialized result: one number that pins every counter
/// and every SLO histogram bucket of a run.
std::uint64_t result_digest(const ControlPlaneResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : result_bytes(r)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// 512 nodes x 4 days at 75% offered load on a generated fault trace.
std::uint64_t golden_digest(fault::TraceModel model, double inject_rate) {
  constexpr int kNodes = 512;
  constexpr double kDays = 4.0;
  ControlPlaneConfig cfg;
  cfg.node_count = kNodes;
  cfg.nodes_per_tor = 4;
  cfg.tors_per_domain = 32;
  cfg.seed = 11;
  cfg.inject.session_failure_rate = inject_rate;
  cfg.inject.seed = 13;

  fault::FaultTrace trace = [&] {
    if (model == fault::TraceModel::kPoisson) {
      fault::TraceGenConfig tg;
      tg.node_count = kNodes;
      tg.duration_days = kDays;
      tg.seed = 7;
      return fault::generate_trace(tg);
    }
    fault::PhysicsTraceConfig pc = fault::storm_trace_defaults();
    pc.node_count = kNodes;
    pc.duration_days = kDays;
    pc.seed = 7;
    return fault::generate_physics_trace(pc);
  }();

  WorkloadConfig wl;
  wl.duration_days = kDays;
  wl.tp_size_gpus = 32;  // m = 8 nodes per group -> 64 groups
  wl.arrival_rate_per_day =
      0.75 * (kNodes / 8.0) /
      (wl.mean_run_days * 0.5 * (wl.min_groups + wl.max_groups));
  Rng rng(5);
  return result_digest(
      run_checked(cfg, trace, generate_workload(wl, rng)));
}

TEST(ControlPlane, GoldenResultBytes) {
  // Pinned output of the whole daemon stack (placement repair, reconfig
  // queue, OCS actuator RNG draws, SLO histograms). A change that moves
  // these digests changes simulated results and must say so.
  EXPECT_EQ(golden_digest(fault::TraceModel::kPoisson, 0.0),
            0xff64f18daf7d69deull);
  EXPECT_EQ(golden_digest(fault::TraceModel::kStorm, 0.10),
            0x9a736555d56a4dd2ull);
}

// --- the control plane as one sweep cell -------------------------------------

/// One trial of the benchmark's ctrl shape in miniature: a loaded 256-node
/// fleet on a storm trace with injected switch failures, its trace, seeds
/// and workload all drawn from the trial's substream.
ControlPlaneResult storm_trial(Rng& rng) {
  constexpr int kNodes = 256;
  constexpr double kDays = 2.0;
  ControlPlaneConfig cfg = small_config();
  fault::PhysicsTraceConfig pc = fault::storm_trace_defaults();
  pc.node_count = kNodes;
  pc.duration_days = kDays;
  pc.seed = rng.next();
  cfg.seed = rng.next();
  cfg.inject.session_failure_rate = 0.10;
  cfg.inject.seed = rng.next();
  WorkloadConfig wl;
  wl.duration_days = kDays;
  wl.tp_size_gpus = 32;  // m = 8 nodes per group -> 32 groups
  wl.arrival_rate_per_day =
      0.75 * (kNodes / 8.0) /
      (wl.mean_run_days * 0.5 * (wl.min_groups + wl.max_groups));
  const fault::FaultTrace trace = fault::generate_physics_trace(pc);
  return run_control_plane(cfg, trace, generate_workload(wl, rng));
}

TEST(ControlPlaneSweep, OneCellOfFourTrialsIsThreadCountInvariant) {
  runtime::SweepSpec spec;
  spec.seed = 1;
  spec.trials = 4;
  spec.keep_samples = false;
  spec.axes = {runtime::Axis::of_labels("Workload", {"storm"})};
  const auto run = [&](int threads, std::vector<ControlPlaneResult>& trials) {
    trials.assign(static_cast<std::size_t>(spec.trials), {});
    return runtime::run_sweep_reduce(
               spec, ControlPlaneResult{},
               [&](const runtime::Scenario& s, Rng& rng) {
                 ControlPlaneResult r = storm_trial(rng);
                 trials[static_cast<std::size_t>(s.trial())] = r;
                 return r;
               },
               [](ControlPlaneResult& acc, ControlPlaneResult&& r) {
                 acc.merge(r);
               },
               threads)
        .cells.front();
  };
  std::vector<ControlPlaneResult> serial_trials;
  std::vector<ControlPlaneResult> wide_trials;
  const ControlPlaneResult serial = run(1, serial_trials);
  const ControlPlaneResult wide = run(4, wide_trials);
  EXPECT_EQ(result_bytes(serial), result_bytes(wide));

  ControlPlaneResult folded;
  for (std::size_t t = 0; t < serial_trials.size(); ++t) {
    const ControlPlaneResult& r = serial_trials[t];
    EXPECT_EQ(result_bytes(r), result_bytes(wide_trials[t])) << "trial " << t;
    EXPECT_GT(r.starts, 0u) << "trial " << t;
    EXPECT_GT(r.reconfig_retried, 0u) << "trial " << t;
    SCOPED_TRACE("trial " + std::to_string(t));
    expect_accounting(r);
    folded.merge(r);
  }
  // The cell is its trials folded in trial order.
  EXPECT_EQ(result_bytes(folded), result_bytes(serial));
  expect_accounting(serial);
}

}  // namespace
}  // namespace ihbd::ctrl
