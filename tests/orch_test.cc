#include <gtest/gtest.h>

#include <set>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/fault/trace.h"
#include "src/orch/incremental.h"
#include "src/orch/orchestrator.h"

namespace ihbd::orch {
namespace {

dcn::FatTree test_tree(int nodes = 1024, int p = 4, int tors_per_domain = 32) {
  dcn::FatTreeConfig cfg;
  cfg.node_count = nodes;
  cfg.nodes_per_tor = p;
  cfg.tors_per_domain = tors_per_domain;
  return dcn::FatTree(cfg);
}

TEST(Deployment, InterleavesSublines) {
  // Algorithm 3 on 8 nodes, p=2: sub-line 0 = {0,2,4,6}, sub-line 1 =
  // {1,3,5,7}, concatenated.
  const auto order = deployment_order(8, 2);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 1, 3, 5, 7}));
}

TEST(Deployment, CoversEveryNodeOnce) {
  const auto order = deployment_order(64, 4);
  std::set<int> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), 64u);
}

TEST(DcnFree, GroupsHealthyRuns) {
  // 10 nodes in order, node 3 faulty, K=2, m=3: component {0,1,2,4,5,6,7,
  // 8,9} bridges the gap -> 3 groups.
  std::vector<int> order(10);
  for (int i = 0; i < 10; ++i) order[i] = i;
  fault::PackedMask faulty(10);
  faulty.set(3, true);
  const auto groups = orchestrate_dcn_free(order, 2, faulty, 3);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].nodes, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(groups[1].nodes, (std::vector<int>{4, 5, 6}));
}

TEST(DcnFree, BreakpointSplitsComponents) {
  std::vector<int> order(10);
  for (int i = 0; i < 10; ++i) order[i] = i;
  fault::PackedMask faulty(10);
  faulty.set(4, true);  // gap of 2 > K-1 for K=2
  faulty.set(5, true);
  const auto groups = orchestrate_dcn_free(order, 2, faulty, 4);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].nodes, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(groups[1].nodes, (std::vector<int>{6, 7, 8, 9}));
}

TEST(DcnFree, RespectsCustomOrder) {
  // Deploy order is not physical order: groups follow the given order.
  std::vector<int> order{0, 4, 8, 12};
  fault::PackedMask faulty(16);
  const auto groups = orchestrate_dcn_free(order, 2, faulty, 2);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].nodes, (std::vector<int>{0, 4}));
  EXPECT_EQ(groups[1].nodes, (std::vector<int>{8, 12}));
}

TEST(Orchestrator, FullConstraintsAlignedWhenHealthy) {
  const auto ft = test_tree();
  FatTreeOrchestrator orch(ft, 2, 4);
  fault::PackedMask faulty(1024);
  JobSpec job;
  job.tp_size_gpus = 32;  // m = 8 = chunk length
  job.gpu_count = 3600;
  const auto placement = orch.place(faulty, job, orch.max_constraints());
  // Every group carved from a chunk carries deployment coordinates.
  for (const auto& g : placement.groups) {
    EXPECT_GE(g.subline, 0);
    EXPECT_GE(g.domain, 0);
    EXPECT_EQ(g.group.nodes.size(), 8u);
  }
  EXPECT_EQ(placement.gpu_count(4), 1024 * 4);
}

TEST(Orchestrator, ZeroConstraintsIsPureDcnFree) {
  const auto ft = test_tree();
  FatTreeOrchestrator orch(ft, 2, 4);
  fault::PackedMask faulty(1024);
  JobSpec job{32, 2048};
  const auto placement = orch.place(faulty, job, 0);
  for (const auto& g : placement.groups) EXPECT_EQ(g.pos, -1);
}

TEST(Orchestrator, CapacityMonotoneInConstraints) {
  const auto ft = test_tree();
  FatTreeOrchestrator orch(ft, 2, 4);
  Rng rng(3);
  const auto mask = fault::sample_fault_mask(1024, 0.06, rng);
  JobSpec job{32, 0};
  int prev = 1 << 30;
  for (int c : {0, 8, 16, 32, orch.max_constraints()}) {
    const int cap = orch.place(mask, job, c).gpu_count(4);
    EXPECT_LE(cap, prev) << "constraints " << c;
    prev = cap;
  }
}

TEST(Orchestrator, AlignmentExpandsFaultsToToR) {
  const auto ft = test_tree();
  FatTreeOrchestrator orch(ft, 2, 4);
  fault::PackedMask faulty(1024);
  faulty.set(0, true);  // domain 0, ToR 0
  JobSpec job{32, 0};
  const int full = orch.max_constraints();
  const auto aligned = orch.place(faulty, job, full);
  const auto carved_only =
      orch.place(faulty, job, full - ft.domain_count());
  // Alignment wastes the whole ToR (p=4 nodes) instead of one node.
  EXPECT_LT(aligned.gpu_count(4), carved_only.gpu_count(4));
  // Node 1 (same ToR) must be absent from the aligned placement.
  for (const auto& g : aligned.groups)
    for (int node : g.group.nodes) EXPECT_NE(node, 1);
}

TEST(Orchestrator, BinarySearchSatisfiesJob) {
  const auto ft = test_tree();
  FatTreeOrchestrator orch(ft, 2, 4);
  Rng rng(5);
  const auto mask = fault::sample_fault_mask(1024, 0.05, rng);
  JobSpec job{32, 3300};
  const auto placement = orch.orchestrate(mask, job);
  EXPECT_GE(placement.gpu_count(4), 3300);
}

TEST(Orchestrator, ThrowsWhenInfeasible) {
  const auto ft = test_tree();
  FatTreeOrchestrator orch(ft, 2, 4);
  const auto faulty = fault::PackedMask(1024).complement();  // everything down
  JobSpec job{32, 512};
  EXPECT_THROW(orch.orchestrate(faulty, job), InfeasibleError);
}

TEST(Orchestrator, PlacedNodesAreHealthyAndUnique) {
  const auto ft = test_tree();
  FatTreeOrchestrator orch(ft, 2, 4);
  Rng rng(7);
  const auto mask = fault::sample_fault_mask(1024, 0.08, rng);
  JobSpec job{32, 2048};
  const auto placement = orch.orchestrate(mask, job);
  std::set<int> seen;
  for (const auto& g : placement.groups) {
    for (int node : g.group.nodes) {
      EXPECT_FALSE(mask.test(node));
      EXPECT_TRUE(seen.insert(node).second) << "node reused: " << node;
    }
  }
}

TEST(Orchestrator, AllFaultyMaskPlacesNothing) {
  const auto ft = test_tree();
  FatTreeOrchestrator orch(ft, 2, 4);
  const auto faulty = fault::PackedMask(1024).complement();
  JobSpec job{32, 0};
  // Every constraint level, including the relaxed floor, must carve zero
  // groups — and never touch out-of-range deploy windows doing so.
  for (int c : {0, 1, ft.domain_count(), orch.max_constraints()}) {
    const auto placement = orch.place(faulty, job, c);
    EXPECT_TRUE(placement.groups.empty()) << "constraints " << c;
    EXPECT_EQ(placement.gpu_count(4), 0) << "constraints " << c;
  }
}

TEST(Orchestrator, JobScaleEqualToFullCluster) {
  const auto ft = test_tree();
  FatTreeOrchestrator orch(ft, 2, 4);
  fault::PackedMask faulty(1024);
  JobSpec job{32, 1024 * 4};  // s = every GPU in the cluster
  // A healthy cluster can place the full-scale job even fully aligned.
  const auto placement = orch.orchestrate(faulty, job);
  EXPECT_EQ(placement.gpu_count(4), 1024 * 4);
  // One faulty node makes the full-cluster scale infeasible at every
  // constraint level.
  faulty.set(500, true);
  EXPECT_THROW(orch.orchestrate(faulty, job), InfeasibleError);
}

TEST(DcnFree, HopReachAtLeastNodeCountBridgesAnyGap) {
  // k >= node count: every healthy pair is "adjacent", so one component
  // spans the whole line no matter how faults are scattered.
  std::vector<int> order(12);
  for (int i = 0; i < 12; ++i) order[i] = i;
  fault::PackedMask faulty(12);
  for (int i = 1; i <= 5; ++i) faulty.set(i, true);
  const auto groups = orchestrate_dcn_free(order, 12, faulty, 3);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].nodes, (std::vector<int>{0, 6, 7}));
  EXPECT_EQ(groups[1].nodes, (std::vector<int>{8, 9, 10}));
  // And a K far beyond the line length behaves identically.
  EXPECT_EQ(orchestrate_dcn_free(order, 1 << 20, faulty, 3).size(), 2u);
}

TEST(ChunkAligned, ChunkShorterThanGroupYieldsNothingAligned) {
  // chunk length 5 < m = 8: pass 1 has no whole aligned window; pass 2
  // cannot tile a whole group either -> empty carve.
  std::vector<int> chunk{0, 1, 2, 3, 4};
  fault::PackedMask faulty(5);
  const auto carved = orchestrate_chunk_aligned(chunk, 2, faulty, 8);
  EXPECT_TRUE(carved.groups.empty());
  EXPECT_TRUE(carved.aligned_pos.empty());
  // m == chunk length is the boundary: exactly one aligned group.
  const auto exact = orchestrate_chunk_aligned(chunk, 2, faulty, 5);
  ASSERT_EQ(exact.groups.size(), 1u);
  EXPECT_EQ(exact.aligned_pos[0], 0);
}

// --- incremental re-orchestration -------------------------------------------

void expect_same_placement(const dcn::PlacementScheme& a,
                           const dcn::PlacementScheme& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].group.nodes, b.groups[i].group.nodes) << "group " << i;
    EXPECT_EQ(a.groups[i].subline, b.groups[i].subline) << "group " << i;
    EXPECT_EQ(a.groups[i].domain, b.groups[i].domain) << "group " << i;
    EXPECT_EQ(a.groups[i].pos, b.groups[i].pos) << "group " << i;
  }
}

TEST(Incremental, MatchesFromScratchPlaceAcrossFlipWalk) {
  const auto ft = test_tree();
  FatTreeOrchestrator orch(ft, 2, 4);
  JobSpec job{32, 0};
  Rng rng(41);
  // Every constraint regime: relaxed floor, chunk-only, partially aligned,
  // fully aligned.
  for (int c : {0, 16, orch.max_constraints() - 8, orch.max_constraints()}) {
    std::vector<bool> mask(1024, false);
    IncrementalPlacement inc(orch, job, c, mask);
    expect_same_placement(inc.placement(), orch.place(mask, job, c));
    for (int step = 0; step < 60; ++step) {
      const int node = static_cast<int>(rng.uniform_index(1024));
      const bool to = !mask[static_cast<std::size_t>(node)];
      mask[static_cast<std::size_t>(node)] = to;
      inc.set_faulty(node, to);
      const auto oracle = orch.place(mask, job, c);
      expect_same_placement(inc.placement(), oracle);
      EXPECT_EQ(inc.gpu_count(), oracle.gpu_count(4));
    }
  }
}

TEST(Incremental, DeltaReportsTrueChurnOnly) {
  const auto ft = test_tree();
  FatTreeOrchestrator orch(ft, 2, 4);
  JobSpec job{32, 0};
  fault::PackedMask mask(1024);
  IncrementalPlacement inc(orch, job, orch.max_constraints(), mask);
  const int before = inc.group_count();

  // Failing one node in an aligned domain kills its ToR's aligned windows.
  auto delta = inc.set_faulty(40, true);
  EXPECT_FALSE(delta.empty());
  EXPECT_GT(delta.removed.size(), delta.added.size());
  EXPECT_EQ(inc.group_count(),
            before - static_cast<int>(delta.removed.size()) +
                static_cast<int>(delta.added.size()));
  // A second fault in the SAME ToR changes nothing: the ToR was already
  // expanded-faulty, so the carve is untouched and the delta is empty.
  EXPECT_TRUE(inc.set_faulty(41, true).empty());
  // Idempotent no-op flip.
  EXPECT_TRUE(inc.set_faulty(40, true).empty());
  // Repairing node 40 alone keeps the ToR faulty (41 still down): no churn.
  EXPECT_TRUE(inc.set_faulty(40, false).empty());
  // Repairing the last fault restores the original carve exactly.
  delta = inc.set_faulty(41, false);
  EXPECT_GT(delta.added.size(), delta.removed.size());
  EXPECT_EQ(inc.group_count(), before);
  expect_same_placement(inc.placement(), orch.place(mask, job,
                                                    orch.max_constraints()));
}

TEST(Greedy, ProducesFeasiblePlacement) {
  const auto ft = test_tree();
  Rng rng(9);
  const auto mask = fault::sample_fault_mask(1024, 0.05, rng);
  JobSpec job{32, 2800};
  const auto placement = greedy_baseline(ft, 2, 4, mask, job, rng);
  EXPECT_GE(placement.gpu_count(4), 2800);
  for (const auto& g : placement.groups) EXPECT_EQ(g.group.nodes.size(), 8u);
}

TEST(Greedy, RandomizesGroupOrder) {
  const auto ft = test_tree();
  Rng rng_a(1), rng_b(2);
  fault::PackedMask faulty(1024);
  JobSpec job{32, 4096};
  const auto a = greedy_baseline(ft, 2, 4, faulty, job, rng_a);
  const auto b = greedy_baseline(ft, 2, 4, faulty, job, rng_b);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.groups.size(); ++i)
    if (a.groups[i].group.nodes != b.groups[i].group.nodes) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(EndToEnd, OptimizedBeatsGreedyOnCrossToR) {
  const auto ft = test_tree();
  FatTreeOrchestrator orch(ft, 2, 4);
  Rng rng(11);
  const auto mask = fault::sample_fault_mask(1024, 0.04, rng);
  JobSpec job{32, static_cast<int>(1024 * 4 * 0.8)};

  const auto optimized = orch.orchestrate(mask, job);
  const auto greedy = greedy_baseline(ft, 2, 4, mask, job, rng);
  const int use = job.gpu_count / job.tp_size_gpus;
  const auto opt_stats = dcn::evaluate_cross_tor(ft, optimized, 4, {}, use);
  const auto greedy_stats = dcn::evaluate_cross_tor(ft, greedy, 4, {}, use);
  EXPECT_LT(opt_stats.cross_tor_rate(), greedy_stats.cross_tor_rate() * 0.5);
  EXPECT_NEAR(greedy_stats.cross_tor_rate(), 0.10, 0.035);
}

}  // namespace
}  // namespace ihbd::orch
