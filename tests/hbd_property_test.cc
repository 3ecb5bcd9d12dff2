// Property-based invariants that must hold for EVERY HBD architecture,
// TP size and fault pattern. Parameterized sweeps (TEST_P) over the §6.1
// architecture set cross TP in {8,16,32,64} cross fault ratios.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "src/fault/trace.h"
#include "src/topo/baselines.h"
#include "src/topo/khop_ring.h"

namespace ihbd::topo {
namespace {

constexpr int kNodes = 288;  // 1,152 GPUs; divisible by 36/72/576-GPU islands
constexpr int kGpusPerNode = 4;

enum class Arch { kK2, kK3, kBigSwitch, kTpuV4, kNvl36, kNvl72, kNvl576, kSip };

std::unique_ptr<HbdArchitecture> make(Arch which) {
  switch (which) {
    case Arch::kK2: return std::make_unique<KHopRing>(kNodes, kGpusPerNode, 2);
    case Arch::kK3: return std::make_unique<KHopRing>(kNodes, kGpusPerNode, 3);
    case Arch::kBigSwitch:
      return std::make_unique<BigSwitch>(kNodes, kGpusPerNode);
    case Arch::kTpuV4:
      return std::make_unique<TpuV4>(kNodes, kGpusPerNode, 64);
    case Arch::kNvl36:
      return std::make_unique<NvlSwitch>(kNodes, kGpusPerNode, 36);
    case Arch::kNvl72:
      return std::make_unique<NvlSwitch>(kNodes, kGpusPerNode, 72);
    case Arch::kNvl576:
      return std::make_unique<NvlSwitch>(kNodes, kGpusPerNode, 576);
    case Arch::kSip: return std::make_unique<SipRing>(kNodes, kGpusPerNode);
  }
  return nullptr;
}

using Case = std::tuple<Arch, int, double>;  // arch, tp, fault ratio

class HbdInvariant : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    arch_ = make(std::get<0>(GetParam()));
    tp_ = std::get<1>(GetParam());
    ratio_ = std::get<2>(GetParam());
  }
  std::unique_ptr<HbdArchitecture> arch_;
  int tp_ = 0;
  double ratio_ = 0.0;
};

TEST_P(HbdInvariant, GpuAccountingConserved) {
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const auto mask = fault::sample_fault_mask(kNodes, ratio_, rng);
    const auto alloc = arch_->allocate(mask, tp_);
    EXPECT_EQ(alloc.total_gpus, kNodes * kGpusPerNode);
    EXPECT_EQ(alloc.usable_gpus + alloc.wasted_healthy_gpus +
                  alloc.faulty_gpus,
              alloc.total_gpus)
        << arch_->name();
    EXPECT_GE(alloc.usable_gpus, 0);
    EXPECT_GE(alloc.wasted_healthy_gpus, 0);
  }
}

TEST_P(HbdInvariant, GroupsAreExactHealthyAndDisjoint) {
  Rng rng(77);
  const auto mask = fault::sample_fault_mask(kNodes, ratio_, rng);
  const auto alloc = arch_->allocate(mask, tp_);
  const int m = tp_ / kGpusPerNode;
  std::set<int> seen;
  for (const auto& g : alloc.groups) {
    EXPECT_EQ(static_cast<int>(g.nodes.size()), m) << arch_->name();
    for (int node : g.nodes) {
      EXPECT_FALSE(mask.test(node)) << arch_->name();
      EXPECT_TRUE(seen.insert(node).second)
          << arch_->name() << " reused node " << node;
    }
  }
  EXPECT_EQ(static_cast<int>(alloc.groups.size()) * tp_, alloc.usable_gpus);
}

TEST_P(HbdInvariant, UsableNeverBeatsIdeal) {
  // No architecture can place more than the ideal Big-Switch.
  Rng rng(99);
  BigSwitch ideal(kNodes, kGpusPerNode);
  for (int trial = 0; trial < 10; ++trial) {
    const auto mask = fault::sample_fault_mask(kNodes, ratio_, rng);
    EXPECT_LE(arch_->allocate(mask, tp_).usable_gpus,
              ideal.allocate(mask, tp_).usable_gpus)
        << arch_->name();
  }
}

TEST_P(HbdInvariant, MoreFaultsNeverHelp) {
  // Adding one fault to a mask cannot increase usable GPUs.
  Rng rng(5);
  auto mask = fault::sample_fault_mask(kNodes, ratio_, rng);
  const int before = arch_->allocate(mask, tp_).usable_gpus;
  // Fail the first healthy node.
  for (int i = 0; i < kNodes; ++i) {
    if (!mask.test(i)) {
      mask.set(i, true);
      break;
    }
  }
  EXPECT_LE(arch_->allocate(mask, tp_).usable_gpus, before) << arch_->name();
}

TEST_P(HbdInvariant, ZeroFaultsZeroFaultyGpus) {
  const auto alloc = arch_->allocate(fault::PackedMask(kNodes), tp_);
  EXPECT_EQ(alloc.faulty_gpus, 0);
  if (alloc.usable_gpus > 0) {
    // Structural fragmentation only - strictly below total.
    EXPECT_LT(alloc.waste_ratio(), 1.0);
  } else {
    // TP larger than the architecture's island (NVL-36 at TP-64): the
    // entire healthy cluster is unusable for this job shape.
    EXPECT_DOUBLE_EQ(alloc.waste_ratio(), 1.0);
  }
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  static const char* names[] = {"K2",    "K3",    "BigSwitch", "TPUv4",
                                "NVL36", "NVL72", "NVL576",    "SiP"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) +
         "_TP" + std::to_string(std::get<1>(info.param)) + "_F" +
         std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HbdInvariant,
    ::testing::Combine(
        ::testing::Values(Arch::kK2, Arch::kK3, Arch::kBigSwitch,
                          Arch::kTpuV4, Arch::kNvl36, Arch::kNvl72,
                          Arch::kNvl576, Arch::kSip),
        ::testing::Values(8, 16, 32, 64),
        ::testing::Values(0.0, 0.02, 0.08)),
    case_name);

// KHopRing-specific structural invariants.
class KHopStructure : public ::testing::TestWithParam<int> {};

TEST_P(KHopStructure, GroupMembersAreKReachable) {
  const int k = GetParam();
  KHopRing ring(kNodes, kGpusPerNode, k);
  Rng rng(404 + k);
  for (double ratio : {0.01, 0.05, 0.12}) {
    const auto mask = fault::sample_fault_mask(kNodes, ratio, rng);
    const auto alloc = ring.allocate(mask, 32);
    for (const auto& g : alloc.groups) {
      for (std::size_t i = 0; i + 1 < g.nodes.size(); ++i) {
        EXPECT_LE(ring.hop_distance(g.nodes[i], g.nodes[i + 1]), k)
            << "K=" << k;
      }
    }
  }
}

TEST_P(KHopStructure, ArcsPartitionHealthyNodes) {
  const int k = GetParam();
  KHopRing ring(kNodes, kGpusPerNode, k);
  Rng rng(500 + k);
  const auto mask = fault::sample_fault_mask(kNodes, 0.10, rng);
  std::set<int> covered;
  for (const auto& arc : ring.healthy_arcs(mask)) {
    for (int node : arc.nodes) {
      EXPECT_FALSE(mask.test(node));
      EXPECT_TRUE(covered.insert(node).second) << "node in two arcs";
    }
  }
  const auto healthy = static_cast<std::size_t>(kNodes - mask.popcount());
  EXPECT_EQ(covered.size(), healthy);
}

TEST_P(KHopStructure, LargerKNeverWastesMore) {
  const int k = GetParam();
  if (k >= 4) return;
  KHopRing smaller(kNodes, kGpusPerNode, k);
  KHopRing larger(kNodes, kGpusPerNode, k + 1);
  Rng rng(600 + k);
  for (int trial = 0; trial < 30; ++trial) {
    const auto mask = fault::sample_fault_mask(kNodes, 0.08, rng);
    EXPECT_LE(larger.allocate(mask, 32).wasted_healthy_gpus,
              smaller.allocate(mask, 32).wasted_healthy_gpus)
        << "K=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, KHopStructure, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace ihbd::topo
