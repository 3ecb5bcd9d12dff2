// Incremental allocation (the fast replay path, see waste.h).
//
// Replaying a fault trace calls HbdArchitecture::allocate() once per sample
// day, but between consecutive samples only the nodes with a fault
// transition change — usually none, sometimes a handful. An
// IncrementalAllocator keeps the allocation state alive across samples and
// updates it from the word-parallel {word_index, xor_bits} spans of the
// trace's grid word-delta timeline (FaultTrace::word_delta_timeline(step)):
// it filters spurious flips with one word XOR and seeds per-island healthy
// counts with masked popcounts.
//
//   * KHopRingIncrementalAllocator — true incremental implementation for
//     the K-Hop Ring: keeps the non-bypassable cut links as a two-level
//     bitset of cut keys, with each arc's healthy length stored at its
//     key node. A single-node flip edits at most two adjacent arcs: finding
//     the neighbouring key is a masked scan of one key word (plus one scan
//     of the summary and one more key word when that word holds no key),
//     and a down-flip that splits an arc pays one word popcount over the
//     shorter side. Adding or removing a key sets or clears two bits. It
//     never re-walks arcs or rebuilds the N-node arc walk.
//   * IslandAllocator — every baseline architecture (§6.1) decomposes into
//     independent islands (the one Big-Switch domain, NVL HBDs, TPUv4
//     cubes, SiP-Ring's static TP-sized rings), so a node flip only
//     disturbs its own island's healthy count — O(1) per flip instead of a
//     full O(N) allocate() on every sample with a transition. This mirrors
//     how OCS-partitioned domains bound reconfiguration work to the
//     affected partition (Mission Apollo).
//
// All implementations produce aggregate fields (total/faulty/usable/wasted
// GPUs, and thus waste_ratio()) bit-identical to arch.allocate(mask, tp) on
// the same mask. They do not materialize Allocation::groups (the replay
// metrics never read them).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
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
  /// since the previous call (one group of a WordDeltaTimeline). The first
  /// call initializes from `mask` wholesale and may ignore `deltas`.
  /// Spurious entries whose word already matches `mask` are tolerated
  /// (skipped, never corrupting state). The reference stays valid until
  /// the next call.
  virtual const Allocation& apply_words(
      const fault::PackedMask& mask,
      std::span<const fault::WordDelta> deltas) = 0;
};

/// True incremental allocator for KHopRing (ring and line variants).
class KHopRingIncrementalAllocator : public IncrementalAllocator {
 public:
  /// `ring` must outlive the allocator; `tp_size_gpus` must be a positive
  /// multiple of ring.gpus_per_node() (same contract as allocate()).
  KHopRingIncrementalAllocator(const KHopRing& ring, int tp_size_gpus);

  const Allocation& apply_words(
      const fault::PackedMask& mask,
      std::span<const fault::WordDelta> deltas) override;

 private:
  // --- arc bookkeeping (see incremental.cc for the invariants) ---
  int gap(int p, int s) const;          // #faulty strictly between p and s
  bool is_cut_link(int p, int s) const; // link p -> s not bypassable
  int next_healthy_of_faulty(int x) const;  // smallest healthy > x, wrapping
  int healthy_in(int a, int b) const;   // #healthy in ring-interval (a, b]
  int prev_key(int x) const;  // largest key < x, wrapping to the last
  int next_key(int x) const;  // smallest key > x, wrapping to the first
  void add_key(int key, int len);     // set the key's two bits
  void drop_key(int key);             // clear them
  void resize_arc(int key, int len);  // set len_at_[key], re-tally waste
  void step_arc_holding(int x, int delta);  // the interior case
  void move_key(int from, int to);          // keeps the arc's length
  void insert_key(int key, int len);
  void merge_key(int key, int delta);  // fold key's arc into the previous
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
  // Cut keys: set bit = a healthy position p whose following link is a
  // cut. key_words_ has one bit per word of keys_, set iff that word holds
  // a key, so the neighbouring key of any node is at most three masked
  // word scans away (23,040 nodes: 360 key words, 6 summary words).
  fault::PackedMask keys_;
  fault::PackedMask key_words_;
  // len_at_[p] = the healthy length of the arc key p opens, i.e. #healthy
  // in (p, next_key(p)] (wrapping); stale at non-key nodes.
  std::vector<int> len_at_;
  int key_count_ = 0;
  // Sum over arcs of len % m. Usable nodes need no separate counter:
  // usable + wasted = healthy, always.
  int wasted_nodes_ = 0;
  Allocation alloc_;
};

/// Incremental allocator for the island-decomposed baselines: per-island
/// healthy counts h_i over an IslandPartition whose last island may be
/// short, with one of two waste rules (m = nodes per TP group):
///   * modulo — wasted = sum_i h_i % m. Big-Switch (one global island),
///     NVL-36/72/576 and TPUv4 at TP <= cube; a TP group larger than an
///     island gives h_i < m, so the whole island is wasted. SiP-Ring over
///     its TP-sized rings is the same rule: a ring with f >= 1 faults
///     wastes (m - f) % m = m - f, an intact ring 0, and the short
///     remainder island all of its healthy nodes.
///   * pooled — TPUv4 at TP > cube: groups tile the pool of fault-free
///     islands, so wasted = sum over faulted islands of h_i plus
///     (clean islands * island size) % m.
/// A flip touches one island: O(1) per flip, O(1) waste readout.
class IslandAllocator final : public IncrementalAllocator {
 public:
  /// `islands` must cover arch's nodes; `tp_size_gpus` must be a positive
  /// multiple of arch.gpus_per_node() (same contract as allocate()).
  IslandAllocator(const HbdArchitecture& arch, IslandPartition islands,
                  int tp_size_gpus, bool pooled);

  const Allocation& apply_words(
      const fault::PackedMask& mask,
      std::span<const fault::WordDelta> deltas) override;

 private:
  void initialize_from(const fault::PackedMask& mask);
  void flip(int node, int step);  // the node's island gains `step` healthy
  const Allocation& finish();

  IslandPartition islands_;
  int m_;  // nodes per TP group
  int gpus_per_node_;
  bool pooled_;
  bool initialized_ = false;
  fault::PackedMask faulty_;
  int healthy_count_ = 0;
  std::vector<int> island_healthy_;
  // Flip-path divisions traded for L1 lookups: node -> island, and the
  // per-island waste of every healthy count in [0, nodes_per_island].
  std::vector<int> island_of_;
  std::vector<int> waste_of_;
  int island_waste_ = 0;   // sum_i waste_of_[h_i]
  int clean_islands_ = 0;  // islands with no fault (the pooled rule's pool)
  Allocation alloc_;
};

/// The right allocator for `arch`: the true incremental implementations for
/// KHopRing and every §6.1 baseline (Big-Switch, NVL, TPUv4 in either TP
/// regime, SiP-Ring). Throws ConfigError naming arch.name() for any other
/// architecture.
std::unique_ptr<IncrementalAllocator> make_incremental_allocator(
    const HbdArchitecture& arch, int tp_size_gpus);

}  // namespace ihbd::topo
