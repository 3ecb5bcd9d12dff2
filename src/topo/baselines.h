// Baseline HBD architectures the paper compares against (§6.1):
// Big-Switch (ideal), NVIDIA NVL-36/72/576, Google TPUv4, SiP-Ring.
//
// The paper's in-house simulator is closed; the allocation models below are
// reverse-engineered from the architecture descriptions (§2.2) and validated
// against every number the paper states (NVL 11% fragmentation floor,
// TPUv4 7.56% TP-32 trace waste, SiP-Ring's collapse at large TP, 0.53%
// for InfiniteHBD). Model assumptions are documented per class.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/contracts.h"
#include "src/topo/hbd.h"

namespace ihbd::topo {

/// Equal-size contiguous partition of the node range [0, node_count) into
/// islands (an NVL HBD, a TPUv4 cube, the single Big-Switch domain).
/// Islands fault and fragment independently, which is what the per-island
/// incremental allocators in incremental.h exploit: a node flip only
/// disturbs its own island's aggregate. `node_count` need not be an exact
/// multiple of `nodes_per_island` in general (SiP-Ring's TP-sized rings
/// leave a trailing remainder); `full_island_count()` counts only complete
/// islands.
struct IslandPartition {
  /// Validates at construction so the dividing accessors below can never
  /// hit a zero island size.
  IslandPartition(int node_count, int nodes_per_island)
      : node_count(node_count), nodes_per_island(nodes_per_island) {
    IHBD_EXPECTS(node_count >= 1 && nodes_per_island >= 1);
  }

  int node_count;
  int nodes_per_island;

  int full_island_count() const { return node_count / nodes_per_island; }
  /// Island index of a node; trailing-remainder nodes map to
  /// full_island_count().
  int island_of(int node) const { return node / nodes_per_island; }
  int island_begin(int island) const { return island * nodes_per_island; }
  /// One past the last node of the island, clamped to the node range.
  int island_end(int island) const {
    const int e = (island + 1) * nodes_per_island;
    return e < node_count ? e : node_count;
  }
};

/// The ideal HBD: one giant non-blocking switch over the whole cluster, no
/// forwarding latency, no fault coupling. Waste is pure global
/// fragmentation: healthy GPUs mod TP size.
class BigSwitch : public HbdArchitecture {
 public:
  BigSwitch(int node_count, int gpus_per_node);
  std::string name() const override { return "Big-Switch"; }
  int node_count() const override { return node_count_; }
  int gpus_per_node() const override { return gpus_per_node_; }
  /// One global island spanning the whole cluster.
  IslandPartition island_partition() const { return {node_count_, node_count_}; }
  Allocation allocate(const fault::PackedMask& faulty,
                      int tp_size_gpus) const override;

 private:
  int node_count_;
  int gpus_per_node_;
};

/// Switch-centric NVL-style HBD: the cluster is partitioned into
/// independent HBD islands of `hbd_gpus` GPUs (36/72/576); each island
/// fragments independently (waste = island-healthy mod TP). A TP group
/// cannot span islands; TP larger than the island wastes the whole island.
class NvlSwitch : public HbdArchitecture {
 public:
  NvlSwitch(int node_count, int gpus_per_node, int hbd_gpus);
  std::string name() const override;
  int node_count() const override { return node_count_; }
  int gpus_per_node() const override { return gpus_per_node_; }
  int hbd_gpus() const { return hbd_gpus_; }
  int nodes_per_island() const { return hbd_gpus_ / gpus_per_node_; }
  /// The independent NVL islands (exact partition, no remainder).
  IslandPartition island_partition() const {
    return {node_count_, nodes_per_island()};
  }
  Allocation allocate(const fault::PackedMask& faulty,
                      int tp_size_gpus) const override;

 private:
  int node_count_;
  int gpus_per_node_;
  int hbd_gpus_;
};

/// Switch-GPU hybrid TPUv4: 4^3 = 64-GPU cubes joined by a centralized OCS
/// with cube-granularity scheduling.
/// Model: for TP <= 64 a TP group must fit inside a single cube (the OCS
/// stitches cube faces, it cannot route around interior faults), so each
/// cube fragments independently: waste = cube-healthy mod TP. For TP > 64,
/// groups are assembled from *fault-free* cubes only (cube-level explosion
/// radius); every healthy GPU in a faulted cube is wasted.
class TpuV4 : public HbdArchitecture {
 public:
  TpuV4(int node_count, int gpus_per_node, int cube_gpus = 64);
  std::string name() const override { return "TPUv4"; }
  int node_count() const override { return node_count_; }
  int gpus_per_node() const override { return gpus_per_node_; }
  int cube_gpus() const { return cube_gpus_; }
  int nodes_per_cube() const { return cube_gpus_ / gpus_per_node_; }
  /// The independent cubes (exact partition, no remainder).
  IslandPartition island_partition() const {
    return {node_count_, nodes_per_cube()};
  }
  Allocation allocate(const fault::PackedMask& faulty,
                      int tp_size_gpus) const override;

 private:
  int node_count_;
  int gpus_per_node_;
  int cube_gpus_;
};

/// GPU-centric SiP-Ring: static rings of exactly TP-size GPUs. A single
/// fault breaks a ring into a line, which cannot serve the fixed-size ring
/// workload: every healthy GPU in a broken ring is wasted (Fig. 1b).
class SipRing : public HbdArchitecture {
 public:
  SipRing(int node_count, int gpus_per_node);
  std::string name() const override { return "SiP-Ring"; }
  int node_count() const override { return node_count_; }
  int gpus_per_node() const override { return gpus_per_node_; }
  /// The static TP-sized rings for a group size of `tp_nodes` nodes; nodes
  /// past the last full ring are the structural-fragmentation remainder.
  IslandPartition ring_partition(int tp_nodes) const {
    return {node_count_, tp_nodes};
  }
  Allocation allocate(const fault::PackedMask& faulty,
                      int tp_size_gpus) const override;

 private:
  int node_count_;
  int gpus_per_node_;
};

/// Factory for the architecture set evaluated in §6 on a cluster of
/// `node_count` x `gpus_per_node` GPUs. Names match the paper's legends.
std::vector<std::unique_ptr<HbdArchitecture>> make_paper_architectures(
    int node_count, int gpus_per_node);

}  // namespace ihbd::topo
