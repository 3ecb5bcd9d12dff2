#include <gtest/gtest.h>

#include <numeric>

#include "src/common/error.h"
#include "src/fault/generator.h"
#include "src/topo/alltoall_topology.h"
#include "src/topo/baselines.h"
#include "src/topo/khop_ring.h"
#include "src/topo/waste.h"

namespace ihbd::topo {
namespace {

fault::PackedMask mask_of(int n, std::initializer_list<int> faulty) {
  fault::PackedMask m(n);
  for (int f : faulty) m.set(f, true);
  return m;
}

// ------------------------------------------------------------- KHopRing ---

TEST(KHopRing, ValidatesConfig) {
  EXPECT_THROW(KHopRing(1, 4, 2), ConfigError);
  EXPECT_THROW(KHopRing(10, 4, 5), ConfigError);  // 2K >= N
  EXPECT_THROW(KHopRing(10, 0, 2), ConfigError);
  EXPECT_NO_THROW(KHopRing(10, 4, 2));
}

TEST(KHopRing, HopDistanceWrapsOnRing) {
  KHopRing ring(10, 4, 2);
  EXPECT_EQ(ring.hop_distance(0, 9), 1);
  EXPECT_EQ(ring.hop_distance(0, 5), 5);
  EXPECT_EQ(ring.hop_distance(2, 4), 2);
}

TEST(KHopRing, LineVariantDoesNotWrap) {
  KHopRing line(10, 4, 2, /*ring=*/false);
  EXPECT_EQ(line.hop_distance(0, 9), 9);
  EXPECT_FALSE(line.connected(0, 9));
}

TEST(KHopRing, NeighborsHaveDegree2K) {
  KHopRing ring(20, 4, 3);
  const auto nbrs = ring.neighbors(5);
  EXPECT_EQ(nbrs.size(), 6u);
  for (int nb : nbrs) EXPECT_TRUE(ring.connected(5, nb));
}

TEST(KHopRing, AllHealthyFormsOneCircularArc) {
  KHopRing ring(12, 4, 2);
  const auto arcs = ring.healthy_arcs(mask_of(12, {}));
  ASSERT_EQ(arcs.size(), 1u);
  EXPECT_TRUE(arcs[0].circular);
  EXPECT_EQ(arcs[0].nodes.size(), 12u);
}

TEST(KHopRing, SingleFaultIsBypassedAtK2) {
  KHopRing ring(12, 4, 2);
  const auto arcs = ring.healthy_arcs(mask_of(12, {5}));
  ASSERT_EQ(arcs.size(), 1u);
  EXPECT_TRUE(arcs[0].circular);
  EXPECT_EQ(arcs[0].nodes.size(), 11u);
}

TEST(KHopRing, TwoAdjacentFaultsBreakK2ButNotK3) {
  const auto mask = mask_of(12, {5, 6});
  KHopRing k2(12, 4, 2);
  const auto arcs2 = k2.healthy_arcs(mask);
  ASSERT_EQ(arcs2.size(), 1u);
  EXPECT_FALSE(arcs2[0].circular);  // ring cut into one line arc

  KHopRing k3(12, 4, 3);
  const auto arcs3 = k3.healthy_arcs(mask);
  ASSERT_EQ(arcs3.size(), 1u);
  EXPECT_TRUE(arcs3[0].circular);  // K=3 bridges the 2-node gap
}

TEST(KHopRing, TwoSeparatedBreakpointsMakeTwoArcs) {
  KHopRing k2(20, 4, 2);
  const auto arcs = k2.healthy_arcs(mask_of(20, {3, 4, 11, 12}));
  ASSERT_EQ(arcs.size(), 2u);
  // Arcs: 5..10 (6 nodes) and 13..2 wrapped (10 nodes).
  std::vector<std::size_t> sizes{arcs[0].nodes.size(), arcs[1].nodes.size()};
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes[0], 6u);
  EXPECT_EQ(sizes[1], 10u);
}

TEST(KHopRing, WrapAroundArcIsContiguous) {
  KHopRing k2(10, 4, 2);
  const auto arcs = k2.healthy_arcs(mask_of(10, {4, 5}));
  ASSERT_EQ(arcs.size(), 1u);
  const auto& nodes = arcs[0].nodes;
  // Expect 6,7,8,9,0,1,2,3 in ring order.
  EXPECT_EQ(nodes.front(), 6);
  EXPECT_EQ(nodes.back(), 3);
}

TEST(KHopRing, AllFaultyYieldsNoArcs) {
  KHopRing k2(8, 4, 2);
  const fault::PackedMask all = fault::PackedMask(8).complement();
  EXPECT_TRUE(k2.healthy_arcs(all).empty());
  const auto alloc = k2.allocate(all, 16);
  EXPECT_EQ(alloc.usable_gpus, 0);
  EXPECT_EQ(alloc.faulty_gpus, 32);
  EXPECT_EQ(alloc.wasted_healthy_gpus, 0);
}

TEST(KHopRing, AllocateTilesArcs) {
  KHopRing k2(12, 4, 2);
  // TP-16 -> m = 4 nodes per group; 12 healthy nodes -> 3 groups, 0 waste.
  const auto alloc = k2.allocate(mask_of(12, {}), 16);
  EXPECT_EQ(alloc.groups.size(), 3u);
  EXPECT_EQ(alloc.usable_gpus, 48);
  EXPECT_EQ(alloc.wasted_healthy_gpus, 0);
  EXPECT_DOUBLE_EQ(alloc.waste_ratio(), 0.0);
}

TEST(KHopRing, AllocateWithBypassedFault) {
  KHopRing k2(13, 4, 2);
  // One fault -> 12 healthy in a circular arc -> 3 groups of 4 nodes.
  const auto alloc = k2.allocate(mask_of(13, {7}), 16);
  EXPECT_EQ(alloc.groups.size(), 3u);
  EXPECT_EQ(alloc.wasted_healthy_gpus, 0);
  // Group members must be within K hops of their ring-successor.
  for (const auto& g : alloc.groups) {
    for (std::size_t i = 0; i + 1 < g.nodes.size(); ++i) {
      EXPECT_LE(k2.hop_distance(g.nodes[i], g.nodes[i + 1]), 2);
    }
  }
}

TEST(KHopRing, GroupSizesExact) {
  KHopRing k3(30, 4, 3);
  const auto alloc = k3.allocate(mask_of(30, {0, 1, 10}), 32);  // m = 8
  for (const auto& g : alloc.groups) EXPECT_EQ(g.nodes.size(), 8u);
  EXPECT_EQ(alloc.usable_gpus + alloc.wasted_healthy_gpus +
                alloc.faulty_gpus,
            alloc.total_gpus);
}

TEST(KHopRing, RejectsBadTpSize) {
  KHopRing k2(12, 4, 2);
  EXPECT_THROW(k2.allocate(mask_of(12, {}), 0), ConfigError);
  EXPECT_THROW(k2.allocate(mask_of(12, {}), 10), ConfigError);
  EXPECT_THROW(k2.allocate(mask_of(11, {}), 16), ConfigError);
}

TEST(KHopRing, LineVariantWastesMoreThanRing) {
  // The line cannot wrap: with no faults and m not dividing N, both waste
  // the same; with the arc cut at the ends the line can only do worse.
  KHopRing ring(50, 4, 2, true);
  KHopRing line(50, 4, 2, false);
  Rng rng(3);
  double ring_waste = 0.0, line_waste = 0.0;
  for (int t = 0; t < 200; ++t) {
    const auto mask = fault::sample_fault_mask(50, 0.08, rng);
    ring_waste += ring.allocate(mask, 32).waste_ratio();
    line_waste += line.allocate(mask, 32).waste_ratio();
  }
  EXPECT_LE(ring_waste, line_waste);
}

// -------------------------------------------------- Appendix C property ---

struct BoundCase {
  int k;
  int gpus_per_node;
  double fault_prob;
};

class WasteBoundProperty : public ::testing::TestWithParam<BoundCase> {};

TEST_P(WasteBoundProperty, MonteCarloRespectsAnalyticBound) {
  // Appendix C: E[waste ratio] <= 2 (Nt - R) Ps^K for i.i.d. node faults
  // (fragmentation-of-the-remainder excluded: the bound covers breakpoint
  // waste, so we run with N a multiple of m and subtract the remainder
  // term, which is <= (m-1)/N and vanishes for large N).
  const auto [k, r, ps] = GetParam();
  const int tp = 32;
  const int m = tp / r;
  const int n_nodes = 200 * m;
  KHopRing ring(n_nodes, r, k);
  Rng rng(42 + k);
  double waste = 0.0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const auto mask = fault::sample_fault_mask_iid(n_nodes, ps, rng);
    waste += ring.allocate(mask, tp).waste_ratio();
  }
  waste /= trials;
  const double bound = waste_ratio_upper_bound(tp, r, ps, k);
  // Allow the remainder-fragmentation term plus Monte-Carlo noise.
  const double slack = static_cast<double>(m) / n_nodes + 0.2 * bound + 5e-4;
  EXPECT_LE(waste, bound + slack)
      << "K=" << k << " R=" << r << " Ps=" << ps;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WasteBoundProperty,
    ::testing::Values(BoundCase{2, 4, 0.0367}, BoundCase{3, 4, 0.0367},
                      BoundCase{2, 8, 0.0722}, BoundCase{3, 8, 0.0722},
                      BoundCase{2, 4, 0.01}, BoundCase{3, 4, 0.05}));

TEST(WasteBound, MatchesPaperTable7) {
  // Table 7: upper bounds for TP-32, GPU failure rate 0.93%.
  EXPECT_NEAR(waste_ratio_upper_bound(32, 4, 0.0367, 2), 0.0754, 0.0003);
  EXPECT_NEAR(waste_ratio_upper_bound(32, 4, 0.0367, 3), 0.0028, 0.0002);
  EXPECT_NEAR(waste_ratio_upper_bound(32, 4, 0.0367, 4), 1.02e-4, 1e-5);
  EXPECT_NEAR(waste_ratio_upper_bound(32, 8, 0.0722, 2), 0.2502, 0.0005);
  EXPECT_NEAR(waste_ratio_upper_bound(32, 8, 0.0722, 3), 0.0181, 0.0003);
  EXPECT_NEAR(waste_ratio_upper_bound(32, 8, 0.0722, 4), 0.0013, 0.0001);
}

// ------------------------------------------------------------ baselines ---

TEST(NvlSwitch, ValidatesConfig) {
  // Regression: node_count <= 0 used to pass — 0 * gpus % hbd_gpus == 0
  // satisfied the only divisibility check — and gpus_per_node == 0 divided
  // by zero inside it.
  EXPECT_THROW(NvlSwitch(0, 4, 72), ConfigError);
  EXPECT_THROW(NvlSwitch(-18, 4, 72), ConfigError);
  EXPECT_THROW(NvlSwitch(18, 0, 72), ConfigError);
  EXPECT_THROW(NvlSwitch(18, -4, 72), ConfigError);
  EXPECT_THROW(NvlSwitch(18, 4, 0), ConfigError);
  EXPECT_THROW(NvlSwitch(18, 4, 30), ConfigError);   // not a node multiple
  EXPECT_THROW(NvlSwitch(20, 4, 72), ConfigError);   // cluster not divisible
  EXPECT_NO_THROW(NvlSwitch(18, 4, 72));
}

TEST(TpuV4, ValidatesConfig) {
  // Same regression as NvlSwitch, with the cube divisibility checks.
  EXPECT_THROW(TpuV4(0, 4), ConfigError);
  EXPECT_THROW(TpuV4(-16, 4), ConfigError);
  EXPECT_THROW(TpuV4(16, 0), ConfigError);
  EXPECT_THROW(TpuV4(16, -4), ConfigError);
  EXPECT_THROW(TpuV4(16, 4, 0), ConfigError);
  EXPECT_THROW(TpuV4(16, 4, 30), ConfigError);       // not a node multiple
  EXPECT_THROW(TpuV4(17, 4, 64), ConfigError);       // cluster not divisible
  EXPECT_NO_THROW(TpuV4(16, 4));
}

TEST(IslandPartition, GeometryAccessors) {
  const NvlSwitch nvl72(36, 4, 72);
  const IslandPartition islands = nvl72.island_partition();
  EXPECT_EQ(islands.nodes_per_island, 18);
  EXPECT_EQ(islands.full_island_count(), 2);
  EXPECT_EQ(islands.island_of(17), 0);
  EXPECT_EQ(islands.island_of(18), 1);
  EXPECT_EQ(islands.island_begin(1), 18);
  EXPECT_EQ(islands.island_end(1), 36);

  EXPECT_EQ(BigSwitch(720, 4).island_partition().full_island_count(), 1);
  EXPECT_EQ(TpuV4(48, 4).island_partition().nodes_per_island, 16);

  // SiP-Ring's TP-sized rings leave a trailing remainder.
  const IslandPartition rings = SipRing(22, 4).ring_partition(8);
  EXPECT_EQ(rings.full_island_count(), 2);
  EXPECT_EQ(rings.island_of(21), 2);  // trailing node
  EXPECT_EQ(rings.island_end(2), 22);
}

TEST(BigSwitch, PureGlobalFragmentation) {
  BigSwitch ideal(720, 4);
  const auto alloc = ideal.allocate(mask_of(720, {1, 2, 3}), 32);
  // 717 healthy nodes = 2868 GPUs; 2868 mod 32 = 20 GPUs wasted = 5 nodes.
  EXPECT_EQ(alloc.wasted_healthy_gpus, 2868 % 32);
  EXPECT_EQ(alloc.usable_gpus, 2868 - 2868 % 32);
}

TEST(NvlSwitch, ElevenPercentFloorAtTp16) {
  // §2.1: NVL-36 running TP-16 wastes >= 11% even with zero faults.
  NvlSwitch nvl36(720, 4, 36);
  const auto alloc = nvl36.allocate(mask_of(720, {}), 16);
  EXPECT_NEAR(alloc.waste_ratio(), 4.0 / 36.0, 1e-9);
}

TEST(NvlSwitch, Nvl72SameFloorAtTp32) {
  NvlSwitch nvl72(720, 4, 72);
  const auto alloc = nvl72.allocate(mask_of(720, {}), 32);
  EXPECT_NEAR(alloc.waste_ratio(), 8.0 / 72.0, 1e-9);
}

TEST(NvlSwitch, Nvl576NoFragmentationWhenClean) {
  NvlSwitch nvl576(720, 4, 576);
  EXPECT_DOUBLE_EQ(nvl576.allocate(mask_of(720, {}), 32).waste_ratio(), 0.0);
}

TEST(NvlSwitch, TpLargerThanIslandWastesIsland) {
  NvlSwitch nvl36(72, 4, 36);
  const auto alloc = nvl36.allocate(mask_of(72, {}), 64);
  EXPECT_EQ(alloc.usable_gpus, 0);
  EXPECT_EQ(alloc.wasted_healthy_gpus, 288);
}

TEST(NvlSwitch, FaultShiftsIslandFragmentation) {
  NvlSwitch nvl72(36, 4, 72);  // two islands of 18 nodes
  const auto alloc = nvl72.allocate(mask_of(36, {0}), 32);
  // Island 0: 68 healthy GPUs -> 2 groups, 4 wasted. Island 1: 72 -> 2
  // groups, 8 wasted.
  EXPECT_EQ(alloc.wasted_healthy_gpus, 4 + 8);
  EXPECT_EQ(alloc.groups.size(), 4u);
}

TEST(TpuV4, PerCubeFragmentationSmallTp) {
  TpuV4 tpu(32, 4, 64);  // two cubes of 16 nodes
  // One fault in cube 0: 60 healthy -> TP-32: one group + 28 wasted.
  const auto alloc = tpu.allocate(mask_of(32, {3}), 32);
  EXPECT_EQ(alloc.wasted_healthy_gpus, 28);
  EXPECT_EQ(alloc.groups.size(), 1u + 2u);
}

TEST(TpuV4, CubeExplosionRadiusLargeTp) {
  TpuV4 tpu(48, 4, 64);  // three cubes
  // TP-128 spans two cubes; a single fault poisons its whole cube.
  const auto alloc = tpu.allocate(mask_of(48, {0}), 128);
  EXPECT_EQ(alloc.usable_gpus, 128);          // two clean cubes = 1 group
  EXPECT_EQ(alloc.wasted_healthy_gpus, 60);   // rest of the dirty cube
}

TEST(TpuV4, MatchesPaperTraceWasteAtTp32) {
  // §1: TPUv4 shows ~7.56% waste on the production trace with TP-32.
  // Under the i.i.d. equivalent (4-GPU node fault ratio 1.17%) the
  // per-cube fragmentation model lands in the same band.
  TpuV4 tpu(720, 4, 64);
  Rng rng(11);
  double waste = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const auto mask = fault::sample_fault_mask_iid(720, 0.0117, rng);
    waste += tpu.allocate(mask, 32).waste_ratio();
  }
  waste /= trials;
  EXPECT_NEAR(waste, 0.0756, 0.02);
}

TEST(SipRing, BrokenRingWastesHealthyMembers) {
  SipRing sip(16, 4);
  // TP-16 -> rings of 4 nodes; fault node 1 breaks ring 0 entirely.
  const auto alloc = sip.allocate(mask_of(16, {1}), 16);
  EXPECT_EQ(alloc.wasted_healthy_gpus, 12);
  EXPECT_EQ(alloc.groups.size(), 3u);
}

TEST(SipRing, TrailingNodesAreStructuralWaste) {
  SipRing sip(10, 4);
  const auto alloc = sip.allocate(mask_of(10, {}), 16);  // rings of 4
  EXPECT_EQ(alloc.groups.size(), 2u);
  EXPECT_EQ(alloc.wasted_healthy_gpus, 8);  // nodes 8, 9
}

TEST(SipRing, DegradesWithTpSize) {
  SipRing sip(720, 4);
  Rng rng(5);
  double waste16 = 0.0, waste64 = 0.0;
  for (int t = 0; t < 100; ++t) {
    const auto mask = fault::sample_fault_mask(720, 0.05, rng);
    waste16 += sip.allocate(mask, 16).waste_ratio();
    waste64 += sip.allocate(mask, 64).waste_ratio();
  }
  EXPECT_LT(waste16, waste64);
}

// ------------------------------------------- architecture ordering ---------

TEST(Architectures, PaperOrderingUnderFaults) {
  // Fig. 13/14's qualitative ordering at TP-32, 5% faults:
  // InfiniteHBD(K=3) ~ BigSwitch < InfiniteHBD(K=2) << NVL-72, and TPUv4 /
  // SiP-Ring trail behind the InfiniteHBD variants.
  Rng rng(17);
  KHopRing k2(720, 4, 2), k3(720, 4, 3);
  BigSwitch ideal(720, 4);
  NvlSwitch nvl72(720, 4, 72);
  TpuV4 tpu(720, 4, 64);
  SipRing sip(720, 4);
  const int trials = 150;
  const double f = 0.05;
  auto mean_waste = [&](const HbdArchitecture& a) {
    Rng local(99);
    double w = 0.0;
    for (int t = 0; t < trials; ++t)
      w += a.allocate(fault::sample_fault_mask(720, f, local), 32)
               .waste_ratio();
    return w / trials;
  };
  const double w_k2 = mean_waste(k2);
  const double w_k3 = mean_waste(k3);
  const double w_ideal = mean_waste(ideal);
  const double w_nvl = mean_waste(nvl72);
  const double w_tpu = mean_waste(tpu);
  const double w_sip = mean_waste(sip);

  EXPECT_NEAR(w_k3, w_ideal, 0.004);
  EXPECT_LE(w_ideal, w_k2 + 1e-12);
  EXPECT_LT(w_k3, 0.01);      // near-zero
  EXPECT_LT(w_k2, 0.03);
  EXPECT_GT(w_nvl, 0.05);     // fragmentation dominated
  EXPECT_GT(w_tpu, w_k2);
  EXPECT_GT(w_sip, w_k2);

  // At the production-trace fault ratio (1.17% for 4-GPU nodes), NVL-72
  // sits at its ~10% fragmentation floor (paper §1: 10.04%).
  Rng prod(123);
  double w_nvl_prod = 0.0;
  for (int t = 0; t < trials; ++t)
    w_nvl_prod += nvl72.allocate(fault::sample_fault_mask(720, 0.0117, prod),
                                 32)
                      .waste_ratio();
  w_nvl_prod /= trials;
  EXPECT_NEAR(w_nvl_prod, 0.1004, 0.012);
}

TEST(Architectures, FactoryCoversPaperSet) {
  const auto archs = make_paper_architectures(720, 4);
  EXPECT_EQ(archs.size(), 8u);
  std::vector<std::string> names;
  for (const auto& a : archs) names.push_back(a->name());
  EXPECT_NE(std::find(names.begin(), names.end(), "InfiniteHBD(K=2)"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "NVL-576"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "TPUv4"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "SiP-Ring"), names.end());
}

// -------------------------------------------------------- waste drivers ---

TEST(WasteDrivers, TraceEvaluationShapes) {
  fault::TraceGenConfig cfg;
  cfg.node_count = 180;
  cfg.duration_days = 40.0;
  const auto trace = fault::generate_trace(cfg);
  KHopRing k3(180, 4, 3);
  const auto result = evaluate_waste_over_trace(k3, trace, 32, 1.0);
  EXPECT_EQ(result.waste_ratio.size(), 40u);
  EXPECT_EQ(result.usable_gpus.size(), 40u);
  EXPECT_LT(result.waste_summary.mean, 0.02);
}

TEST(WasteDrivers, MaxJobScaleQuantiles) {
  TimeSeries usable;
  for (int i = 0; i < 100; ++i) usable.push(i, 1000.0 + i);  // 1000..1099
  EXPECT_EQ(max_job_scale(usable, 1.0, 32), (1000 / 32) * 32);
  EXPECT_GE(max_job_scale(usable, 0.5, 32), (1040 / 32) * 32);
}

TEST(WasteDrivers, MaxJobScaleSurvivesPercentileFpNoise) {
  // 11 samples: one dip to 0, plateau at 960. quantile = 0.9 puts the
  // percentile rank mathematically dead on sorted index 1 (value 960), but
  // (1 - 0.9) * 100 = 9.999999999999998 interpolates to 959.99999999999977;
  // a raw int cast truncated that to 959 and floored away an entire TP-32
  // group (928 instead of 960).
  TimeSeries usable;
  usable.push(0.0, 0.0);
  for (int i = 1; i <= 10; ++i) usable.push(i, 960.0);
  EXPECT_EQ(max_job_scale(usable, 0.9, 32), 960);
}

TEST(WasteDrivers, FaultWaitingRate) {
  TimeSeries usable;
  for (int i = 0; i < 10; ++i) usable.push(i, i < 3 ? 900.0 : 1100.0);
  EXPECT_DOUBLE_EQ(fault_waiting_rate(usable, 1000.0), 0.3);
  EXPECT_DOUBLE_EQ(fault_waiting_rate(usable, 100.0), 0.0);
}

// --------------------------------------------- Appendix G.3 wiring --------

TEST(BinaryHop, ConnectivityIsPowersOfTwo) {
  BinaryHopTopology t(64, 4, 4);  // distances 1, 2, 4, 8
  EXPECT_TRUE(t.connected(0, 1));
  EXPECT_TRUE(t.connected(0, 2));
  EXPECT_TRUE(t.connected(0, 4));
  EXPECT_TRUE(t.connected(0, 8));
  EXPECT_FALSE(t.connected(0, 3));
  EXPECT_FALSE(t.connected(0, 16));
}

TEST(BinaryHop, CouplingConstraintMatchesPaper) {
  // Appendix G.3: 4-GPU node with 4 bundles -> TPsize x EPsize <= 64;
  // 8-GPU node with 8 bundles -> <= 2048.
  BinaryHopTopology small(64, 4, 4);
  EXPECT_TRUE(small.coupling_ok(4, 16));
  EXPECT_FALSE(small.coupling_ok(4, 17));
  BinaryHopTopology big(1024, 8, 8);
  EXPECT_TRUE(big.coupling_ok(8, 256));
  EXPECT_FALSE(big.coupling_ok(8, 257));
}

TEST(BinaryHop, SupportsAlignedPow2Groups) {
  BinaryHopTopology t(64, 4, 4);
  EXPECT_TRUE(t.supports_binary_exchange(0, 16));
  EXPECT_TRUE(t.supports_binary_exchange(16, 16));
  EXPECT_FALSE(t.supports_binary_exchange(8, 16));  // misaligned
  EXPECT_FALSE(t.supports_binary_exchange(0, 32));  // exceeds 2^B
  EXPECT_FALSE(t.supports_binary_exchange(0, 12));  // not a power of two
}

TEST(BinaryHop, ScheduleTouchesEveryPartnerOnce) {
  BinaryHopTopology t(64, 4, 4);
  const auto schedule = t.binary_exchange_schedule(16, 16);
  EXPECT_EQ(schedule.size(), 4u);  // log2(16) rounds
  for (const auto& round : schedule) {
    EXPECT_EQ(round.size(), 8u);  // p/2 disjoint pairs
    std::vector<int> seen;
    for (auto [a, b] : round) {
      EXPECT_TRUE(t.connected(a, b));
      seen.push_back(a);
      seen.push_back(b);
    }
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    EXPECT_EQ(seen.size(), 16u);  // every member exactly once
  }
}

TEST(BinaryHop, ScheduleThrowsWhenUnsupported) {
  BinaryHopTopology t(64, 4, 3);
  EXPECT_THROW(t.binary_exchange_schedule(0, 16), InfeasibleError);
}

}  // namespace
}  // namespace ihbd::topo
