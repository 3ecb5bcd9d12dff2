// Incremental re-orchestration (the control-plane entry point into §4.3).
//
// FatTreeOrchestrator::place() carves the whole deployment line from
// scratch on every call — fine for one-shot evaluation, far too slow for a
// long-running control plane that must absorb a continuous stream of
// fault/repair transitions at 10k-100k-node scale. The key structural fact
// (mirroring topo::IncrementalAllocator for the replay path): Algorithm 4
// carves per-domain sub-line CHUNKS independently, so one node's health
// flip can only change the carve of the chunks whose *expanded* fault bits
// it touches —
//   * its own chunk, always;
//   * in alignment-constrained domains (domain < n_align), a faulty node
//     marks its whole ToR faulty, and the ToR's p nodes sit in p different
//     sub-lines: up to p chunks of that domain re-carve;
//   * the residual tail beyond the last whole chunk, when the node (or its
//     ToR) lives there.
//
// IncrementalPlacement maintains the per-chunk carve results and patches
// only the affected chunks per flip, reporting exactly which placed groups
// vanished and which appeared — the churn signal the control plane turns
// into job re-placements and OCS reconfiguration requests. The assembled
// placement() is bit-identical (group order, node order, and subline/
// domain/pos metadata) to a from-scratch place() on the same mask, for any
// flip history; orch_test walks randomized flip sequences against that
// oracle.
#pragma once

#include <vector>

#include "src/dcn/traffic.h"
#include "src/orch/orchestrator.h"

namespace ihbd::orch {

/// The groups removed from / added to the placement by one health flip.
/// Groups untouched by the patch (identical nodes and metadata) appear in
/// neither list, so the delta is the true churn, not the re-carve size.
struct PlacementDelta {
  std::vector<dcn::PlacedGroup> removed;
  std::vector<dcn::PlacedGroup> added;

  bool empty() const { return removed.empty() && added.empty(); }
};

/// Incrementally maintained Algorithm-4 placement at a fixed constraint
/// count. The always-on control plane pins n_constraints (typically
/// max_constraints() for full alignment, or a ControlPlaneConfig choice)
/// instead of re-running the Algorithm-5 binary search per event: capacity
/// is tracked incrementally and admission decisions read it directly.
class IncrementalPlacement {
 public:
  /// `orch` must outlive this object. `n_constraints` in
  /// [0, orch.max_constraints()].
  IncrementalPlacement(const FatTreeOrchestrator& orch, const JobSpec& job,
                       int n_constraints, const fault::PackedMask& faulty);

  /// Flip one node's health and patch the affected chunks. A no-op flip
  /// (node already in that state) returns an empty delta.
  PlacementDelta set_faulty(int node, bool faulty);

  /// Assemble the full placement — bit-identical to
  /// orch.place(current mask, job, n_constraints).
  dcn::PlacementScheme placement() const;

  /// Groups / GPUs currently placed (maintained incrementally).
  int group_count() const { return group_count_; }
  int gpu_count() const { return group_count_ * m_ * gpus_per_node_; }

 private:
  struct ChunkCarve {
    std::vector<dcn::PlacedGroup> aligned;
    std::vector<dcn::PlacedGroup> misaligned;
  };

  /// Deploy position of a physical node (inverse of deployment_order).
  int deploy_pos(int node) const;
  /// Re-carve chunk q (or the residual tail for q == chunk_count_) from the
  /// current expanded mask into `out`.
  void carve_chunk(int q, ChunkCarve& out) const;
  /// Recompute the expanded bit of `node` from faulty_ / tor_faults_.
  bool expanded_bit(int node) const;

  const FatTreeOrchestrator& orch_;
  int m_;
  int gpus_per_node_;
  int chunk_len_;
  int chunk_count_;  ///< whole chunks (n_maxsubline); 0 when n_constraints==0
  int n_subline_;
  int n_align_;

  fault::PackedMask faulty_;
  fault::PackedMask expanded_;
  std::vector<int> tor_faults_;  ///< faulty-node count per ToR

  std::vector<ChunkCarve> chunks_;  ///< chunk_count_ + 1 (residual last)
  int group_count_ = 0;
};

}  // namespace ihbd::orch
