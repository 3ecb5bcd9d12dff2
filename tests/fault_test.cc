#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/fault/generator.h"
#include "src/fault/trace.h"

namespace ihbd::fault {
namespace {

TEST(FaultTrace, ValidatesEvents) {
  EXPECT_THROW(FaultTrace(0, 10.0, {}), ConfigError);
  EXPECT_THROW(FaultTrace(4, 10.0, {{5, 0.0, 1.0}}), ConfigError);
  EXPECT_THROW(FaultTrace(4, 10.0, {{1, 2.0, 1.0}}), ConfigError);
}

/// The ConfigError message of constructing a trace from `events`, or "".
std::string construction_error(std::vector<FaultEvent> events) {
  try {
    FaultTrace(4, 10.0, std::move(events));
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(FaultTrace, ValidationNamesTheFieldAndTheEventIndex) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    FaultEvent bad;
    const char* what;
  };
  const Case cases[] = {
      {{1, nan, 1.0}, "start_day"}, {{1, -inf, 1.0}, "start_day"},
      {{1, inf, inf}, "start_day"}, {{1, 0.0, nan}, "end_day"},
      {{1, 0.0, inf}, "end_day"},   {{7, 0.0, 1.0}, "node out of range"},
      {{1, 2.0, 1.0}, "ends early"},
  };
  for (const Case& c : cases) {
    // Index 1 in input order: the valid event comes first.
    const std::string msg = construction_error({{0, 0.0, 1.0}, c.bad});
    EXPECT_NE(msg.find(c.what), std::string::npos) << msg;
    EXPECT_NE(msg.find("event 1"), std::string::npos) << msg;
  }
  EXPECT_THROW(FaultTrace(4, std::numeric_limits<double>::quiet_NaN(), {}),
               ConfigError);
  EXPECT_THROW(FaultTrace(4, inf, {}), ConfigError);
}

TEST(FaultTrace, SortedAndUnsortedInputsGiveOneEventOrder) {
  // Ties on start day (broken by node) and on start day and node (broken
  // by end day): every input permutation lands in this one order.
  const std::vector<FaultEvent> sorted = {
      {0, 0.5, 4.0}, {1, 1.0, 1.5}, {1, 1.0, 2.0}, {2, 1.0, 3.0},
      {3, 2.0, 2.0}};
  std::vector<int> perm = {0, 1, 2, 3, 4};
  do {
    std::vector<FaultEvent> events;
    for (const int i : perm) events.push_back(sorted[static_cast<std::size_t>(i)]);
    const FaultTrace trace(4, 10.0, events);
    ASSERT_EQ(trace.events().size(), sorted.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_EQ(trace.events()[i].node, sorted[i].node);
      EXPECT_EQ(trace.events()[i].start_day, sorted[i].start_day);
      EXPECT_EQ(trace.events()[i].end_day, sorted[i].end_day);
    }
  } while (std::next_permutation(perm.begin(), perm.end()));

  // A generated trace, re-built from its own (sorted) events and from a
  // shuffled copy.
  TraceGenConfig cfg;
  cfg.node_count = 64;
  cfg.duration_days = 60.0;
  const FaultTrace trace = generate_trace(cfg);
  std::vector<FaultEvent> shuffled = trace.events();
  Rng rng(5);
  rng.shuffle(shuffled);
  for (const auto& events : {trace.events(), shuffled}) {
    const FaultTrace rebuilt(trace.node_count(), trace.duration_days(), events);
    ASSERT_EQ(rebuilt.events().size(), trace.events().size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(rebuilt.events()[i].node, trace.events()[i].node);
      EXPECT_EQ(rebuilt.events()[i].start_day, trace.events()[i].start_day);
      EXPECT_EQ(rebuilt.events()[i].end_day, trace.events()[i].end_day);
    }
  }
}

TEST(FaultTrace, FaultyAtRespectsIntervals) {
  FaultTrace trace(4, 10.0, {{1, 2.0, 4.0}, {3, 3.0, 5.0}});
  EXPECT_FALSE(trace.faulty_at(1.0).test(1));
  EXPECT_TRUE(trace.faulty_at(2.5).test(1));
  EXPECT_TRUE(trace.faulty_at(3.5).test(1));
  EXPECT_TRUE(trace.faulty_at(3.5).test(3));
  EXPECT_FALSE(trace.faulty_at(4.5).test(1));
  EXPECT_TRUE(trace.faulty_at(4.5).test(3));
  EXPECT_EQ(trace.faulty_count_at(3.5), 2);
}

TEST(FaultTrace, RatioSeriesLengthAndRange) {
  FaultTrace trace(10, 30.0, {{0, 0.0, 30.0}});
  const auto ts = trace.ratio_series(1.0);
  EXPECT_EQ(ts.size(), 30u);
  for (double v : ts.v) EXPECT_DOUBLE_EQ(v, 0.1);
}

TEST(FaultTrace, MeanRepairDays) {
  FaultTrace trace(4, 10.0, {{0, 0.0, 1.0}, {1, 2.0, 5.0}});
  EXPECT_DOUBLE_EQ(trace.mean_repair_days(), 2.0);
}

TEST(FaultTrace, SplitToHalfNodesPreservesTiming) {
  FaultTrace trace(4, 10.0, {{2, 1.0, 3.0}});
  Rng rng(1);
  const auto half = trace.split_to_half_nodes(rng, /*inherit_prob=*/1.0);
  EXPECT_EQ(half.node_count(), 8);
  EXPECT_EQ(half.events().size(), 2u);
  EXPECT_TRUE(half.faulty_at(2.0).test(4));
  EXPECT_TRUE(half.faulty_at(2.0).test(5));
}

TEST(FaultTrace, SplitInheritProbabilityMatchesPaper) {
  // Appendix A: each 4-GPU half inherits with P = 50.21%, so the 4-GPU
  // node fault ratio is ~half the 8-GPU ratio.
  std::vector<FaultEvent> events;
  for (int n = 0; n < 300; ++n) events.push_back({n, 0.0, 10.0});
  FaultTrace trace(300, 10.0, events);
  Rng rng(7);
  const auto half = trace.split_to_half_nodes(rng);
  const double ratio8 = 1.0;
  const double ratio4 =
      static_cast<double>(half.faulty_count_at(5.0)) / half.node_count();
  EXPECT_NEAR(ratio4, 0.5021 * ratio8, 0.06);
}

TEST(FaultTrace, RemapNodesDropsOutOfRange) {
  FaultTrace trace(10, 5.0, {{1, 0.0, 1.0}, {9, 0.0, 1.0}});
  const auto small = trace.remap_nodes(5);
  EXPECT_EQ(small.node_count(), 5);
  EXPECT_EQ(small.events().size(), 1u);
  EXPECT_THROW(trace.remap_nodes(0), ConfigError);
  EXPECT_THROW(trace.remap_nodes(11), ConfigError);
}

TEST(SampleFaultMask, ExactCount) {
  Rng rng(1);
  const auto mask = sample_fault_mask(1000, 0.05, rng);
  EXPECT_EQ(mask.popcount(), 50);
}

TEST(SampleFaultMask, ZeroAndFullRatios) {
  Rng rng(1);
  auto none = sample_fault_mask(100, 0.0, rng);
  auto all = sample_fault_mask(100, 1.0, rng);
  EXPECT_EQ(none.popcount(), 0);
  EXPECT_EQ(all.popcount(), 100);
}

std::vector<int> set_bits(const PackedMask& mask) {
  std::vector<int> out;
  for_each_set_bit(mask, [&](int i) { out.push_back(i); });
  return out;
}

// Pins the samplers' RNG draw order (the shuffle, then one bernoulli per
// node in index order): figs 14/17/17d, table 7 and the K-hop ablation
// print numbers that depend on exactly these bits.
TEST(SampleFaultMask, DrawOrderIsPinned) {
  Rng exact_rng(7);
  EXPECT_EQ(set_bits(sample_fault_mask(64, 0.25, exact_rng)),
            (std::vector<int>{0, 1, 2, 3, 4, 9, 10, 11, 14, 19, 25, 34, 43,
                              47, 51, 53}));
  Rng iid_rng(7);
  EXPECT_EQ(set_bits(sample_fault_mask_iid(64, 0.25, iid_rng)),
            (std::vector<int>{6, 7, 9, 18, 19, 20, 25, 26, 28, 30, 31, 41, 43,
                              45, 56, 60}));
}

TEST(SampleFaultMask, IidApproximatesRatio) {
  Rng rng(2);
  int total = 0;
  for (int t = 0; t < 50; ++t) {
    const auto mask = sample_fault_mask_iid(1000, 0.03, rng);
    total += mask.popcount();
  }
  EXPECT_NEAR(total / 50.0 / 1000.0, 0.03, 0.005);
}

TEST(Generator, CalibratedToPaperStatistics) {
  // Appendix A / Fig. 18: mean 2.33%, p50 1.67%, p99 7.22% for 8-GPU nodes.
  const FaultTrace trace = generate_trace();
  const Summary s = trace.ratio_summary(0.25);
  EXPECT_NEAR(s.mean, PaperTraceStats::kMeanRatio, 0.006);
  EXPECT_NEAR(s.p50, PaperTraceStats::kP50Ratio, 0.006);
  EXPECT_NEAR(s.p99, PaperTraceStats::kP99Ratio, 0.022);
}

TEST(Generator, DeterministicForSeed) {
  TraceGenConfig cfg;
  const auto a = generate_trace(cfg);
  const auto b = generate_trace(cfg);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_DOUBLE_EQ(a.events()[i].start_day, b.events()[i].start_day);
  }
}

TEST(Generator, EventsWithinWindow) {
  const auto trace = generate_trace();
  for (const auto& e : trace.events()) {
    EXPECT_GE(e.start_day, 0.0);
    EXPECT_LE(e.end_day, trace.duration_days());
    EXPECT_GE(e.duration(), 0.0);
  }
}

TEST(Generator, SplitTraceHalvesTheRatio) {
  const auto trace8 = generate_trace();
  Rng rng(3);
  const auto trace4 = trace8.split_to_half_nodes(rng);
  const double mean8 = trace8.ratio_summary(1.0).mean;
  const double mean4 = trace4.ratio_summary(1.0).mean;
  EXPECT_NEAR(mean4, mean8 * 0.5021, 0.004);
}

TEST(Generator, RejectsBadConfig) {
  TraceGenConfig cfg;
  cfg.node_count = 0;
  EXPECT_THROW(generate_trace(cfg), ConfigError);
}

TEST(Generator, ValidationNamesTheOffendingField) {
  const auto expect_names = [](TraceGenConfig cfg, const char* field) {
    try {
      generate_trace(cfg);
      FAIL() << "expected ConfigError naming " << field;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  TraceGenConfig cfg;
  cfg.node_count = -3;
  expect_names(cfg, "TraceGenConfig.node_count");
  cfg = {};
  cfg.duration_days = 0.0;
  expect_names(cfg, "TraceGenConfig.duration_days");
  cfg = {};
  cfg.node_fault_rate_per_day = -0.1;
  expect_names(cfg, "TraceGenConfig.node_fault_rate_per_day");
  cfg = {};
  cfg.repair_lognorm_sigma = -1.0;
  expect_names(cfg, "TraceGenConfig.repair_lognorm_sigma");
  cfg = {};
  cfg.incident_rate_per_day = 0.0;
  expect_names(cfg, "TraceGenConfig.incident_rate_per_day");
  cfg = {};
  cfg.incident_frac_mean = 0.0;
  expect_names(cfg, "TraceGenConfig.incident_frac_mean");
  cfg = {};
  cfg.incident_frac_sigma = -0.5;
  expect_names(cfg, "TraceGenConfig.incident_frac_sigma");
  cfg = {};
  cfg.incident_duration_sigma = -0.5;
  expect_names(cfg, "TraceGenConfig.incident_duration_sigma");
}

}  // namespace
}  // namespace ihbd::fault
