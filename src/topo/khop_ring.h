// The InfiniteHBD reconfigurable K-Hop Ring topology (paper §4.2, Design 2).
//
// All N nodes sit on one datacenter-scale ring; every node connects via
// OCSTrx to the nodes at hop distance 1..K on both sides (degree 2K). For
// AllReduce only two of the 2K links are active; the rest are backups.
// A run of j consecutive faulty nodes is bypassed by a (j+1)-hop link,
// possible iff j <= K-1; longer runs are *breakpoints* that split the ring
// into healthy arcs. Rings of any size are closed with the OCSTrx
// cross-lane loopback at both ends of a node segment.
#pragma once

#include <optional>
#include <vector>

#include "src/topo/hbd.h"

namespace ihbd::topo {

/// A healthy arc: maximal sequence of healthy nodes in ring order in which
/// consecutive members are within K hops of each other.
struct HealthyArc {
  std::vector<int> nodes;
  bool circular = false;  ///< true when the arc is the entire (unbroken) ring
};

class KHopRing : public HbdArchitecture {
 public:
  /// `k` is the hop reach (OCSTrx bundle count per side); `ring` selects the
  /// ring topology (default) vs the K-hop *line* variant (§4.2: "can be
  /// broken into the K-Hop line topology, with the trade-off of reduced
  /// fault tolerance").
  KHopRing(int node_count, int gpus_per_node, int k, bool ring = true);

  std::string name() const override;
  int node_count() const override { return node_count_; }
  int gpus_per_node() const override { return gpus_per_node_; }
  int k() const { return k_; }
  bool is_ring() const { return ring_; }

  /// Hop distance between two nodes on the ring (shortest direction);
  /// on the line variant, |a - b|.
  int hop_distance(int a, int b) const;

  /// True if a direct OCSTrx link exists between nodes a and b.
  bool connected(int a, int b) const;

  /// All neighbors of a node (ring order: +1..+K then -1..-K, wrapped).
  std::vector<int> neighbors(int node) const;

  /// Decompose the healthy nodes into arcs given the fault mask. A single
  /// circular arc is returned when no breakpoint (faulty run >= K) exists.
  std::vector<HealthyArc> healthy_arcs(const fault::PackedMask& faulty) const;

  /// Greedy ring construction: tile each arc with groups of `m` nodes.
  Allocation allocate(const fault::PackedMask& faulty,
                      int tp_size_gpus) const override;

  /// The longest faulty run that can still be bypassed (= K - 1).
  int max_bypassable_run() const { return k_ - 1; }

 private:
  int node_count_;
  int gpus_per_node_;
  int k_;
  bool ring_;
};

/// Appendix-C analytic upper bound on the expected healthy-GPU waste ratio
/// of InfiniteHBD: E[WR] <= 2 (Nt - R) Ps^K, with Nt the TP size in GPUs,
/// R the GPUs per node, Ps the node fault probability and K the hop reach.
double waste_ratio_upper_bound(int tp_size_gpus, int gpus_per_node,
                               double node_fault_prob, int k);

}  // namespace ihbd::topo
