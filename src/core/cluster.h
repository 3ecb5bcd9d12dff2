// InfiniteHbdCluster: the public facade of the library.
//
// Ties together the OCSTrx transceiver state machines (src/ocstrx), the
// K-Hop Ring topology (src/topo) and fault handling into the API a
// downstream scheduler programs against:
//   - build variable-size GPU rings for TP groups (intra-node loopback at
//     the segment ends, K-hop external links in between),
//   - inject node faults and watch neighbors bypass them over backup
//     paths within the 60-80 us OCSTrx reconfiguration budget,
//   - inspect per-node OCSTrx sessions, bandwidth and allocation state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/fault/packed_mask.h"
#include "src/ocstrx/fabric_manager.h"
#include "src/topo/hbd.h"
#include "src/topo/khop_ring.h"

namespace ihbd::core {

/// One activated inter-node link of a ring plan.
struct LinkAssignment {
  int from_node = 0;
  int to_node = 0;
  int hop = 0;           ///< ring distance spanned (1 = primary, >1 = backup)
  int from_bundle = 0;   ///< bundle index steering the egress
  ocstrx::OcsPath path = ocstrx::OcsPath::kExternal1;
};

/// Result of (re)building rings across the cluster.
struct RingPlan {
  topo::Allocation allocation;       ///< groups, usable/wasted GPU counts
  std::vector<LinkAssignment> links; ///< every activated external link
  double reconfig_latency_s = 0.0;   ///< max per-node switch latency
  int reconfigured_bundles = 0;
};

/// Result of reacting to a node fault while rings are active.
struct BypassResult {
  bool ring_was_member = false;  ///< the node was inside an active group
  bool bypassed = false;         ///< neighbors rerouted around it
  double reconfig_latency_s = 0.0;
  int degraded_group = -1;       ///< index of the group that lost the node
};

class InfiniteHbdCluster {
 public:
  struct Config {
    int node_count = 64;
    int gpus_per_node = 4;
    int k = 2;                ///< OCSTrx bundle count per direction (K-hop)
    int trx_per_bundle = 8;   ///< 8 x 800G = 6.4 Tbps per GPU pair
    bool ring = true;         ///< ring vs K-hop line topology
    ocstrx::TrxConfig trx;
    std::uint64_t seed = 1;
  };

  explicit InfiniteHbdCluster(const Config& config);

  const topo::KHopRing& topology() const { return topo_; }
  int node_count() const { return config_.node_count; }
  int gpus_per_node() const { return config_.gpus_per_node; }
  int total_gpus() const { return topo_.total_gpus(); }

  /// ---- fault lifecycle --------------------------------------------------
  void fail_node(int node);
  void repair_node(int node);
  bool node_faulty(int node) const;
  const fault::PackedMask& fault_mask() const { return faulty_; }
  int faulty_node_count() const { return faulty_.popcount(); }

  /// ---- ring construction -------------------------------------------------
  /// Build as many `tp_size_gpus`-sized rings as the healthy topology
  /// allows; steers every involved OCSTrx bundle (loopback at segment ends,
  /// K-hop external links inside) and parks unused bundles in loopback.
  RingPlan build_rings(int tp_size_gpus);

  /// The currently active plan (empty allocation before build_rings).
  const RingPlan& active_plan() const { return plan_; }

  /// ---- runtime fault bypass ----------------------------------------------
  /// Fail `node` and, if it is inside an active group, steer its ring
  /// neighbors onto backup paths (possible when the resulting hop <= K).
  /// The group continues degraded (one node short). Falls back to
  /// `ring_broken` semantics when the gap exceeds K.
  BypassResult fail_and_bypass(int node);

  /// ---- introspection ------------------------------------------------------
  /// Per-GPU external HBD bandwidth currently deliverable (Gbit/s).
  double hbd_bandwidth_per_gpu_gbps(int node) const;
  ocstrx::NodeFabricManager& fabric(int node);
  const ocstrx::NodeFabricManager& fabric(int node) const;

  /// Map a hop (+h forward / -h backward, 1 <= h <= K) to the bundle and
  /// OCS path that serves it under this library's wiring convention:
  /// bundle 2(h-1) serves +h (External1) and +h+... see cluster.cc.
  std::pair<int, ocstrx::OcsPath> bundle_for_hop(int signed_hop) const;

 private:
  void steer_group_links(const topo::TpGroup& group, RingPlan& plan);

  Config config_;
  topo::KHopRing topo_;
  std::vector<ocstrx::NodeFabricManager> fabrics_;
  fault::PackedMask faulty_;
  RingPlan plan_;
  Rng rng_;
};

}  // namespace ihbd::core
