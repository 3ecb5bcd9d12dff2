// Incremental allocation (the fast replay path, see waste.h).
//
// Replaying a fault trace calls HbdArchitecture::allocate() once per sample
// day, but between consecutive samples only the nodes with a fault
// transition change — usually none, sometimes a handful. An
// IncrementalAllocator keeps the allocation state alive across samples and
// updates it from the word-parallel {word_index, xor_bits} spans of
// FaultMaskCursor::advance_to_words: it filters spurious flips with one word
// XOR and seeds per-island healthy counts with masked popcounts.
//
//   * KHopRingIncrementalAllocator — true incremental implementation for
//     the K-Hop Ring: keeps the sorted non-bypassable cut links with each
//     arc's healthy length stored beside its cut key. A single-node flip
//     edits at most two adjacent arcs: one binary search over the cut
//     keys, plus one word popcount over the shorter side when a down-flip
//     splits an arc. It never re-walks arcs or rebuilds the N-node arc
//     walk.
//   * Per-island allocators for the baseline architectures (§6.1): every
//     baseline decomposes into independent islands (the one Big-Switch
//     domain, NVL HBDs, TPUv4 cubes, SiP-Ring's static TP-sized rings), so
//     a node flip only disturbs its own island's aggregate — O(1) per flip
//     instead of a full O(N) allocate() on every sample with a transition.
//     This mirrors how OCS-partitioned domains bound reconfiguration work
//     to the affected partition (Mission Apollo). See
//     IslandModuloAllocator, TpuCubePoolAllocator,
//     SipRingIncrementalAllocator.
//
// All implementations produce aggregate fields (total/faulty/usable/wasted
// GPUs, and thus waste_ratio()) bit-identical to arch.allocate(mask, tp) on
// the same mask. They do not materialize Allocation::groups (the replay
// metrics never read them).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/fault/packed_mask.h"
#include "src/topo/baselines.h"
#include "src/topo/hbd.h"
#include "src/topo/khop_ring.h"

namespace ihbd::topo {

/// Allocation state that survives across replay samples and is patched by
/// fault deltas instead of recomputed from scratch.
class IncrementalAllocator {
 public:
  virtual ~IncrementalAllocator() = default;

  /// The allocation for `mask`, given that `deltas` are the XOR spans
  /// since the previous call (as reported by
  /// FaultMaskCursor::advance_to_words). The first call initializes from
  /// `mask` wholesale and may ignore `deltas`. Spurious entries whose word
  /// already matches `mask` are tolerated (skipped, never corrupting
  /// state). The reference stays valid until the next call.
  virtual const Allocation& apply_words(
      const fault::PackedMask& mask,
      const std::vector<fault::WordDelta>& deltas) = 0;
};

/// True incremental allocator for KHopRing (ring and line variants).
class KHopRingIncrementalAllocator : public IncrementalAllocator {
 public:
  /// `ring` must outlive the allocator; `tp_size_gpus` must be a positive
  /// multiple of ring.gpus_per_node() (same contract as allocate()).
  KHopRingIncrementalAllocator(const KHopRing& ring, int tp_size_gpus);

  const Allocation& apply_words(
      const fault::PackedMask& mask,
      const std::vector<fault::WordDelta>& deltas) override;

 private:
  // --- arc bookkeeping (see incremental.cc for the invariants) ---
  int gap(int p, int s) const;          // #faulty strictly between p and s
  bool is_cut_link(int p, int s) const; // link p -> s not bypassable
  int next_healthy_of_faulty(int x) const;  // smallest healthy > x, wrapping
  int healthy_in(int a, int b) const;   // #healthy in ring-interval (a, b]
  std::size_t key_index(int key) const;     // lower bound of key in cuts_
  std::size_t before(std::size_t i) const;  // previous key, wrapping
  std::size_t arc_holding(int x) const;     // key whose arc holds non-key x
  void resize_arc(std::size_t i, int len);  // set lens_[i], re-tally waste
  void step_arc_holding(int x, int delta);  // the interior case
  void move_key(std::size_t i, int key);    // keeps the arc's length
  void insert_key(int key, int len);
  void merge_key(std::size_t i, int delta); // fold arc i into the previous
  void rebuild_from_healthy();
  void take_down(int x);
  void bring_up(int x);
  void fill_alloc();

  const KHopRing& ring_;
  int n_;                    // node count
  int m_;                    // nodes per TP group
  bool circular_;            // ring (true) vs line variant
  bool initialized_ = false;
  // Set bit = healthy node (the complement of the fault mask): split
  // lengths are masked popcounts and faulty-run walks are word scans.
  fault::PackedMask healthy_;
  // Circular doubly-linked list over healthy nodes (entries of faulty
  // nodes are stale): O(1) neighbor lookup on down-flips.
  std::vector<int> prev_, next_;
  int healthy_count_ = 0;
  // Healthy positions p whose following link is a cut, sorted ascending,
  // and beside each key the healthy length of the arc it opens:
  // lens_[i] = #healthy in (cuts_[i], cuts_[i+1]] (wrapping). Flat vectors:
  // cut sets are tiny on realistic fault ratios (a cut needs a faulty run
  // >= K), so binary search + memmove beat a node-based set.
  std::vector<int> cuts_;
  std::vector<int> lens_;
  // Sum over arcs of len % m. Usable nodes need no separate counter:
  // usable + wasted = healthy, always.
  int wasted_nodes_ = 0;
  Allocation alloc_;
};

/// Shared frame for the per-island baseline allocators: owns the packed
/// faulty bitmap and healthy count, filters spurious deltas with a word
/// compare, routes genuine single-node flips to the derived class's island
/// aggregate, and fills the Allocation aggregates from the derived
/// wasted-node total (usable + wasted = healthy holds for every baseline).
class PerIslandAllocatorBase : public IncrementalAllocator {
 public:
  const Allocation& apply_words(
      const fault::PackedMask& mask,
      const std::vector<fault::WordDelta>& deltas) final;

 protected:
  /// `arch` must outlive the allocator; `tp_size_gpus` must be a positive
  /// multiple of arch.gpus_per_node() (same contract as allocate()).
  PerIslandAllocatorBase(const HbdArchitecture& arch, int tp_size_gpus);

  int healthy_count() const { return healthy_count_; }
  int node_count() const { return n_; }

  int m_;  ///< nodes per TP group

 private:
  /// Seed the per-island aggregates from a full fault mask (the healthy
  /// count is already set in the base); implementations use masked
  /// popcounts per island.
  virtual void init_islands(const fault::PackedMask& faulty) = 0;
  /// Update the flipped node's island aggregate (the node's bit and the
  /// healthy count have already been updated in the base).
  virtual void island_flip(int node, bool to_faulty) = 0;
  /// Total healthy-but-unplaceable nodes over all islands.
  virtual int wasted_nodes() const = 0;

  void initialize_from(const fault::PackedMask& mask);
  const Allocation& finish();

  int n_;
  int gpus_per_node_;
  bool initialized_ = false;
  fault::PackedMask faulty_;
  int healthy_count_ = 0;
  Allocation alloc_;
};

/// True incremental allocator for the modulo-fragmenting islands:
/// Big-Switch (one global island), NVL-36/72/576 (independent HBD islands)
/// and TPUv4 at TP <= cube (independent cubes). Each island wastes
/// healthy_i % m nodes — which also covers TP groups larger than the island
/// (healthy_i < m, so the residue is the whole island's healthy count, the
/// "TP cannot span islands" rule) — so a flip updates one island's residue
/// in O(1).  Requires an exact partition (no trailing remainder).
class IslandModuloAllocator : public PerIslandAllocatorBase {
 public:
  IslandModuloAllocator(const HbdArchitecture& arch, IslandPartition islands,
                        int tp_size_gpus);

 private:
  void init_islands(const fault::PackedMask& faulty) override;
  void island_flip(int node, bool to_faulty) override;
  int wasted_nodes() const override { return wasted_nodes_; }

  IslandPartition islands_;
  std::vector<int> island_healthy_;
  // Flip-path divisions traded for L1 lookups: node -> island, and
  // healthy -> healthy % m over the whole [0, nodes_per_island] range.
  std::vector<int> island_of_;
  std::vector<int> residue_;
  int wasted_nodes_ = 0;
};

/// True incremental allocator for TPUv4's pooled regime (TP > cube): groups
/// are tiled over the pool of fault-free cubes and every healthy node in a
/// faulted cube is wasted, so only the per-cube fault counts and the clean
/// cube count matter — O(1) per flip, O(1) waste readout.
class TpuCubePoolAllocator : public PerIslandAllocatorBase {
 public:
  /// Requires tp_size_gpus > tpu.cube_gpus(); the per-cube fragmentation
  /// regime is IslandModuloAllocator's job (make_incremental_allocator
  /// picks the right one).
  TpuCubePoolAllocator(const TpuV4& tpu, int tp_size_gpus);

 private:
  void init_islands(const fault::PackedMask& faulty) override;
  void island_flip(int node, bool to_faulty) override;
  int wasted_nodes() const override;

  IslandPartition cubes_;
  std::vector<int> cube_of_;      ///< node -> cube (flip-path div removal)
  std::vector<int> cube_faulty_;  ///< faulty-node count per cube
  int clean_cubes_ = 0;
};

/// True incremental allocator for SiP-Ring: static rings of exactly m
/// consecutive nodes, where one fault breaks the whole ring (every healthy
/// member is wasted) and nodes past the last full ring are structural
/// fragmentation. Tracks per-ring fault counts plus the trailing healthy
/// count — O(1) per flip.
class SipRingIncrementalAllocator : public PerIslandAllocatorBase {
 public:
  SipRingIncrementalAllocator(const SipRing& sip, int tp_size_gpus);

 private:
  void init_islands(const fault::PackedMask& faulty) override;
  void island_flip(int node, bool to_faulty) override;
  int wasted_nodes() const override {
    return broken_waste_nodes_ + trailing_healthy_;
  }

  IslandPartition rings_;
  std::vector<int> ring_of_;      ///< node -> ring (flip-path div removal)
  std::vector<int> ring_faulty_;  ///< faulty-node count per full ring
  int broken_waste_nodes_ = 0;    ///< sum over broken rings of (m - faults)
  int trailing_healthy_ = 0;
};

/// The right allocator for `arch`: the true incremental implementations for
/// KHopRing and every §6.1 baseline (Big-Switch, NVL, TPUv4 in either TP
/// regime, SiP-Ring). Throws ConfigError naming arch.name() for any other
/// architecture.
std::unique_ptr<IncrementalAllocator> make_incremental_allocator(
    const HbdArchitecture& arch, int tp_size_gpus);

}  // namespace ihbd::topo
