// HBD-DCN orchestration (paper §4.3 + Appendix D, Design 3).
//
// Deployment phase (Algorithm 3): nodes with the same index under each ToR
// form p parallel sub-lines in the InfiniteHBD ring; HBD-adjacent nodes are
// therefore in adjacent ToRs, and the p nodes of one ToR hold matching TP
// ranks - keeping DP/CP/PP/SP traffic intra-ToR when TP groups are aligned.
//
// Runtime phase:
//   - Algorithm 2 (Orchestration-DCN-Free): DFS connected components of the
//     healthy K-hop graph, sorted in HBD order, popped into m-node groups.
//   - Algorithm 4 (Placement-Fat-Tree): apply n_constraints constraints -
//     first carve per-domain sub-line chunks (TP stays inside an
//     aggregation domain), then ToR-expand faults in the first n_align
//     domains (rank alignment); orchestrate the remainder unconstrained.
//   - Algorithm 5 (Orchestration-Fat-Tree): binary-search the largest
//     n_constraints whose placement still satisfies the job scale.
#pragma once

#include <vector>

#include "src/common/rng.h"
#include "src/dcn/fattree.h"
#include "src/dcn/traffic.h"
#include "src/fault/packed_mask.h"
#include "src/topo/hbd.h"

namespace ihbd::orch {

/// Job description for orchestration.
struct JobSpec {
  int tp_size_gpus = 32;  ///< t
  int gpu_count = 0;      ///< s: total GPUs the job needs
};

/// Algorithm 3 (Deployment-Strategy): the HBD ring order S_deploy for a
/// cluster of `node_count` physical nodes and p nodes per ToR: sub-line i
/// holds physical nodes {i, i+p, i+2p, ...}; sub-lines are concatenated.
std::vector<int> deployment_order(int node_count, int p);

/// Algorithm 2 (Orchestration-DCN-Free) over an ordered node list with
/// K-hop edges *in that order*: returns m-node TP groups built from the
/// healthy connected components, in HBD order. `faulty` is indexed by
/// physical node id.
std::vector<topo::TpGroup> orchestrate_dcn_free(
    const std::vector<int>& nodes_in_hbd_order, int k,
    const fault::PackedMask& faulty, int m);

/// Alignment-aware chunk placement: groups are first carved from fault-free
/// m-aligned windows (keeping TP ranks matched to ToR positions across
/// sub-lines - the paper's "align ranks within each ToR" objective); the
/// remaining healthy runs are then tiled into *misaligned* groups whose
/// DP traffic will cross ToRs. Aligned groups report their window index in
/// `aligned_pos`; misaligned groups get -1.
struct ChunkGroups {
  std::vector<topo::TpGroup> groups;
  std::vector<int> aligned_pos;  ///< parallel to groups
};
ChunkGroups orchestrate_chunk_aligned(const std::vector<int>& chunk, int k,
                                      const fault::PackedMask& faulty, int m);

/// The Fat-Tree orchestrator (Algorithms 4 + 5).
class FatTreeOrchestrator {
 public:
  /// `k` is the InfiniteHBD hop reach; `gpus_per_node` is r.
  FatTreeOrchestrator(const dcn::FatTree& fat_tree, int k, int gpus_per_node);

  /// Algorithm 5: binary-search n_constraints, return the placement with
  /// the most constraints that still satisfies the job. Throws
  /// InfeasibleError when even the unconstrained placement is too small.
  dcn::PlacementScheme orchestrate(const fault::PackedMask& faulty,
                                   const JobSpec& job) const;

  /// Algorithm 4 for a fixed constraint count (exposed for tests/ablation).
  dcn::PlacementScheme place(const fault::PackedMask& faulty,
                             const JobSpec& job, int n_constraints) const;

  /// n_domain + n_maxsubline: the binary search's upper bound.
  int max_constraints() const;

  int subline_chunk_len() const { return chunk_len_; }
  int gpus_per_node() const { return gpus_per_node_; }
  int k() const { return k_; }
  const dcn::FatTree& fat_tree() const { return fat_tree_; }
  /// S_deploy: the Algorithm-3 deployment order place() carves chunks from.
  const std::vector<int>& deployment() const { return deploy_; }

 private:
  const dcn::FatTree& fat_tree_;
  int k_;
  int gpus_per_node_;
  int chunk_len_;             ///< l = d / p nodes per per-domain sub-line chunk
  std::vector<int> deploy_;   ///< S_deploy
};

/// The §6.4 baseline: greedily pick healthy nodes at random (first feasible
/// permutation), ignoring DCN locality. Produces a placement whose DP rings
/// are essentially all cross-ToR.
dcn::PlacementScheme greedy_baseline(const dcn::FatTree& fat_tree, int k,
                                     int gpus_per_node,
                                     const fault::PackedMask& faulty,
                                     const JobSpec& job, Rng& rng);

}  // namespace ihbd::orch
