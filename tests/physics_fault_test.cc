// Tests for the physics-grounded fault generator (src/fault/physics_generator.h):
// calibration against the paper's Appendix A statistics, the burstiness
// contract versus the Poisson baseline, determinism, pinned event bytes,
// config validation, and the overlapping-interval geometry storm traces feed
// into every consumer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.h"
#include "src/fault/generator.h"
#include "src/fault/injection.h"
#include "src/fault/physics_generator.h"

namespace ihbd::fault {
namespace {

TEST(PhysicsGenerator, CalibratedToPaperStatistics) {
  // Appendix A / Fig. 18 targets: mean 2.33%, p50 1.67%, p99 7.22% for
  // 8-GPU nodes over 348 days. The degradation models reproduce mean/p50
  // on the Poisson generator's tolerance; the correlated tail is heavier
  // by design (that is the point of the physics), so p99 gets more slack.
  for (const auto& cfg : {physics_trace_defaults(), storm_trace_defaults()}) {
    const Summary s = generate_physics_trace(cfg).ratio_summary(0.25);
    EXPECT_NEAR(s.mean, PaperTraceStats::kMeanRatio, 0.006);
    EXPECT_NEAR(s.p50, PaperTraceStats::kP50Ratio, 0.006);
    EXPECT_NEAR(s.p99, PaperTraceStats::kP99Ratio, 0.035);
  }
}

TEST(PhysicsGenerator, StrictlyBurstierThanPoissonBaseline) {
  // The degradation models exist because real failures arrive in correlated
  // bursts: at the calibrated defaults both must have a strictly heavier
  // p99/p50 ratio than the memoryless Poisson baseline.
  const Summary poisson = generate_trace().ratio_summary(0.25);
  const Summary physics =
      generate_physics_trace(physics_trace_defaults()).ratio_summary(0.25);
  const Summary storm =
      generate_physics_trace(storm_trace_defaults()).ratio_summary(0.25);
  ASSERT_GT(poisson.p50, 0.0);
  EXPECT_GT(physics.p99 / physics.p50, poisson.p99 / poisson.p50);
  EXPECT_GT(storm.p99 / storm.p50, poisson.p99 / poisson.p50);
}

TEST(PhysicsGenerator, DeterministicForSeed) {
  PhysicsTraceConfig cfg = storm_trace_defaults();
  cfg.duration_days = 60.0;
  const auto a = generate_physics_trace(cfg);
  const auto b = generate_physics_trace(cfg);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_DOUBLE_EQ(a.events()[i].start_day, b.events()[i].start_day);
    EXPECT_DOUBLE_EQ(a.events()[i].end_day, b.events()[i].end_day);
  }
  cfg.seed = 7;
  const auto c = generate_physics_trace(cfg);
  EXPECT_NE(a.events().size(), c.events().size());
}

TEST(PhysicsGenerator, EventsStayInsideTheWindow) {
  PhysicsTraceConfig cfg = storm_trace_defaults();
  cfg.duration_days = 90.0;
  const auto trace = generate_physics_trace(cfg);
  EXPECT_FALSE(trace.events().empty());
  for (const auto& ev : trace.events()) {
    EXPECT_GE(ev.node, 0);
    EXPECT_LT(ev.node, cfg.node_count);
    EXPECT_GE(ev.start_day, 0.0);
    EXPECT_LT(ev.start_day, ev.end_day);
    EXPECT_LE(ev.end_day, cfg.duration_days);
  }
}

TEST(PhysicsGenerator, StormTracesProduceOverlappingIntervals) {
  // Storm outages land on nodes that may already be down with a degradation
  // fault: the default storm trace must contain same-node interval overlap,
  // the geometry every consumer's depth counting exists for (see the
  // FaultEvent overlap contract in src/fault/trace.h).
  const auto trace = generate_physics_trace(storm_trace_defaults());
  std::vector<std::vector<std::pair<double, double>>> per(
      static_cast<std::size_t>(trace.node_count()));
  for (const auto& ev : trace.events())
    per[static_cast<std::size_t>(ev.node)].push_back(
        {ev.start_day, ev.end_day});
  int overlapping = 0;
  for (auto& v : per) {
    std::sort(v.begin(), v.end());
    for (std::size_t i = 1; i < v.size(); ++i)
      if (v[i].first < v[i - 1].second) ++overlapping;
  }
  EXPECT_GT(overlapping, 0);
}

TEST(PhysicsGenerator, CrewPoolQueuesDomainStorms) {
  // With one crew, a domain-wide storm must drain serially: the repair
  // completion times of its nodes are strictly staggered, giving storms
  // their long tail. A large crew pool repairs the same storm in parallel.
  PhysicsTraceConfig cfg = storm_trace_defaults();
  cfg.duration_days = 120.0;
  cfg.excursion_rate_per_day = 0.0;   // isolate the storm process
  cfg.aging_db_per_day = 0.0;
  cfg.aging_walk_db = 0.0;
  cfg.drift_sigma_db = 0.0;
  cfg.transient_prob = 0.0;
  cfg.storm.rate_per_day = 0.05;
  cfg.storm.domain_prob = 1.0;  // every storm takes a whole domain
  cfg.storm.repair_crews = 1;
  const auto queued = generate_physics_trace(cfg);
  cfg.storm.repair_crews = 1000;
  const auto parallel = generate_physics_trace(cfg);
  ASSERT_FALSE(queued.events().empty());
  ASSERT_EQ(queued.events().size(), parallel.events().size());
  // Same outages, strictly longer downtime under the bounded crew pool.
  double queued_downtime = 0.0, parallel_downtime = 0.0;
  for (const auto& ev : queued.events()) queued_downtime += ev.duration();
  for (const auto& ev : parallel.events()) parallel_downtime += ev.duration();
  EXPECT_GT(queued_downtime, 2.0 * parallel_downtime);
}

/// FNV-1a over each event's node and the bit patterns of its start and end
/// day, in trace order: any moved byte of the event vector moves it.
std::uint64_t event_digest(const FaultTrace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (word >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& ev : trace.events()) {
    mix(static_cast<std::uint32_t>(ev.node), 4);
    mix(std::bit_cast<std::uint64_t>(ev.start_day), 8);
    mix(std::bit_cast<std::uint64_t>(ev.end_day), 8);
  }
  return h;
}

TEST(PhysicsGenerator, EventBytesArePinned) {
  // Digests of the full event vector for configs that span the per-tick
  // link evaluation: the calibrated defaults, a hot marginal hall where
  // most ticks sit near the BER threshold, temperature coefficients of
  // negative sign, and no transient drift penalty at all. A change to how
  // ticks are evaluated must leave every one of them unmoved.
  PhysicsTraceConfig storm = storm_trace_defaults();
  storm.node_count = 2560;
  storm.duration_days = 16.0;

  PhysicsTraceConfig hot = physics_trace_defaults();
  hot.duration_days = 60.0;
  hot.base_temp_c = 58.0;
  hot.transient_prob = 1.0;
  hot.oma_dbm_mean = -7.6;
  hot.aging_db_per_day = 0.0;

  PhysicsTraceConfig negative = physics_trace_defaults();
  negative.duration_days = 120.0;
  negative.base_temp_c = 45.0;
  negative.matrix.element.loss_temp_coeff_db = -0.004;
  negative.ber.noise_temp_coeff = -0.006;

  PhysicsTraceConfig no_drift = physics_trace_defaults();
  no_drift.duration_days = 120.0;
  no_drift.ber.drift_penalty_db_per_c = 0.0;

  const std::pair<const char*, PhysicsTraceConfig> cases[] = {
      {"storm 2560x16", storm},
      {"physics defaults", physics_trace_defaults()},
      {"hot marginal hall", hot},
      {"negative temperature coefficients", negative},
      {"no drift penalty", no_drift},
  };
  const std::uint64_t want[] = {
      0x2b20d7bc6bce9565ULL, 0xc4bf9736ef064d58ULL, 0x8fef9622ff20c3bbULL,
      0xf9dd628fc13885bcULL, 0xdcc440991c244856ULL,
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const FaultTrace trace = generate_physics_trace(cases[i].second);
    EXPECT_FALSE(trace.events().empty()) << cases[i].first;
    EXPECT_EQ(event_digest(trace), want[i])
        << cases[i].first << ": 0x" << std::hex << event_digest(trace)
        << " over " << std::dec << trace.events().size() << " events";
  }
}

TEST(PhysicsGenerator, ValidationNamesTheOffendingField) {
  const auto expect_names = [](PhysicsTraceConfig cfg, const char* field) {
    try {
      generate_physics_trace(cfg);
      FAIL() << "expected ConfigError naming " << field;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  PhysicsTraceConfig cfg;
  cfg.node_count = 0;
  expect_names(cfg, "PhysicsTraceConfig.node_count");
  cfg = {};
  cfg.duration_days = -1.0;
  expect_names(cfg, "PhysicsTraceConfig.duration_days");
  cfg = {};
  cfg.tick_days = 0.0;
  expect_names(cfg, "PhysicsTraceConfig.tick_days");
  cfg = {};
  cfg.transient_prob = 1.5;
  expect_names(cfg, "PhysicsTraceConfig.transient_prob");
  cfg = {};
  cfg.aging_db_per_day = -0.1;
  expect_names(cfg, "PhysicsTraceConfig.aging_db_per_day");
  cfg = {};
  cfg.ber_threshold = 0.7;
  expect_names(cfg, "PhysicsTraceConfig.ber_threshold");
  cfg = {};
  cfg.storm.rate_per_day = 0.01;
  cfg.storm.repair_crews = 0;
  expect_names(cfg, "PhysicsTraceConfig.storm.repair_crews");
  cfg = {};
  cfg.storm.rate_per_day = 0.01;
  cfg.storm.domain_prob = -0.2;
  expect_names(cfg, "PhysicsTraceConfig.storm.domain_prob");
  // Nested physical-layer fields: each used to abort on a phy:: contract.
  for (const double bad : {-0.01, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    cfg = {};
    cfg.ber.drift_penalty_db_per_c = bad;
    expect_names(cfg, "PhysicsTraceConfig.ber.drift_penalty_db_per_c");
  }
  cfg = {};
  cfg.ber.detector_noise_mw_25c = 0.0;
  expect_names(cfg, "PhysicsTraceConfig.ber.detector_noise_mw_25c");
  cfg = {};
  cfg.ber.measured_bits = -1.0;
  expect_names(cfg, "PhysicsTraceConfig.ber.measured_bits");
  cfg = {};
  cfg.matrix.lane_count = 1;
  expect_names(cfg, "PhysicsTraceConfig.matrix.lane_count");
  cfg = {};
  cfg.matrix.coupling_loss_db = -0.5;
  expect_names(cfg, "PhysicsTraceConfig.matrix.coupling_loss_db");
  cfg = {};
  cfg.matrix.element.insertion_loss_db = 0.0;
  expect_names(cfg, "PhysicsTraceConfig.matrix.element.insertion_loss_db");
  cfg = {};
  cfg.matrix.element.extinction_ratio_db = -3.0;
  expect_names(cfg, "PhysicsTraceConfig.matrix.element.extinction_ratio_db");
  cfg = {};
  cfg.matrix.waveguide_loss_db = -0.1;
  expect_names(cfg, "PhysicsTraceConfig.matrix.waveguide_loss_db");
  // Doubles read with no range of their own must be finite; +inf used to
  // pass "> 0" on the durations and reach the tick count's size_t cast.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  cfg = {};
  cfg.duration_days = inf;
  expect_names(cfg, "PhysicsTraceConfig.duration_days");
  cfg = {};
  cfg.tick_days = inf;
  expect_names(cfg, "PhysicsTraceConfig.tick_days");
  using Field = double PhysicsTraceConfig::*;
  const std::pair<Field, const char*> top_level[] = {
      {&PhysicsTraceConfig::base_temp_c, "base_temp_c"},
      {&PhysicsTraceConfig::excursion_amp_mu_c, "excursion_amp_mu_c"},
      {&PhysicsTraceConfig::excursion_duration_mu, "excursion_duration_mu"},
      {&PhysicsTraceConfig::oma_dbm_mean, "oma_dbm_mean"},
      {&PhysicsTraceConfig::repair_lognorm_mu, "repair_lognorm_mu"},
  };
  for (const double bad : {inf, -inf, nan}) {
    for (const auto& [field, name] : top_level) {
      cfg = {};
      cfg.*field = bad;
      expect_names(cfg, (std::string("PhysicsTraceConfig.") + name).c_str());
    }
    cfg = {};
    cfg.storm.rate_per_day = 0.01;
    cfg.storm.crew_work_mu = bad;
    expect_names(cfg, "PhysicsTraceConfig.storm.crew_work_mu");
    cfg = {};
    cfg.ber.noise_temp_coeff = bad;
    expect_names(cfg, "PhysicsTraceConfig.ber.noise_temp_coeff");
    cfg = {};
    cfg.ber.drift_onset_temp_c = bad;
    expect_names(cfg, "PhysicsTraceConfig.ber.drift_onset_temp_c");
    cfg = {};
    cfg.matrix.element.loss_temp_coeff_db = bad;
    expect_names(cfg, "PhysicsTraceConfig.matrix.element.loss_temp_coeff_db");
    cfg = {};
    cfg.matrix.waveguide_loss_db = bad;
    expect_names(cfg, "PhysicsTraceConfig.matrix.waveguide_loss_db");
  }
}

TEST(InjectionPlan, PureHashIsDeterministicAndRateBounded) {
  InjectionPlan off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.should_fail(3, 17));

  InjectionPlan plan;
  plan.session_failure_rate = 0.10;
  plan.seed = 42;
  int hits = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const bool fail = plan.should_fail(i % 64, static_cast<std::uint64_t>(i));
    EXPECT_EQ(fail,
              plan.should_fail(i % 64, static_cast<std::uint64_t>(i)));
    hits += fail ? 1 : 0;
  }
  // ~10% +- sampling noise.
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.10, 0.01);

  // A different seed is a different plan.
  InjectionPlan other = plan;
  other.seed = 43;
  int agree = 0;
  for (int i = 0; i < 1000; ++i)
    agree += plan.should_fail(0, static_cast<std::uint64_t>(i)) ==
                     other.should_fail(0, static_cast<std::uint64_t>(i))
                 ? 1
                 : 0;
  EXPECT_LT(agree, 1000);
}

TEST(TraceModel, NamesAreCanonical) {
  EXPECT_STREQ(trace_model_name(TraceModel::kPoisson), "poisson");
  EXPECT_STREQ(trace_model_name(TraceModel::kPhysics), "physics");
  EXPECT_STREQ(trace_model_name(TraceModel::kStorm), "storm");
}

}  // namespace
}  // namespace ihbd::fault
