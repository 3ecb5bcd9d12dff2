#include "src/topo/incremental.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/common/contracts.h"
#include "src/common/error.h"
#include "src/obs/metrics.h"

namespace ihbd::topo {

namespace {

/// Incremental-allocator metrics (src/obs): how often each KHop flip case
/// fires, per-island flip volume, and the dirty-word traffic. All
/// recording sits behind obs::enabled() so the allocators' flip paths are
/// unperturbed by default.
struct AllocObs {
  obs::Counter& khop_interior;  ///< KHop flip, cut keys unchanged
  obs::Counter& khop_cut_move;  ///< KHop flip, one cut key moves p <-> x
  obs::Counter& khop_split;     ///< KHop flip, a cut key appears
  obs::Counter& khop_merge;     ///< KHop flip, a cut key disappears
  obs::Counter& island_flips;   ///< per-island O(1) flips applied
  obs::Counter& dirty_words;    ///< word deltas consumed by apply_words
};

AllocObs& alloc_obs() {
  static AllocObs o{obs::counter("alloc.khop.interior"),
                    obs::counter("alloc.khop.cut_move"),
                    obs::counter("alloc.khop.split"),
                    obs::counter("alloc.khop.merge"),
                    obs::counter("alloc.island.flips"),
                    obs::counter("alloc.dirty_words")};
  return o;
}

}  // namespace

// ---------------------------------------------------------------------------
// KHopRingIncrementalAllocator
//
// Invariants (mirroring KHopRing::healthy_arcs exactly):
//   * healthy_ (set bit = healthy node) / healthy_count_ track the healthy
//     node set, and prev_/next_ link the healthy nodes into a circular
//     list (entries for faulty nodes are stale until they come back up).
//   * cuts_ holds every healthy position p whose link to the next healthy
//     node s (clockwise, wrapping) is NOT bypassable: the faulty gap
//     between them exceeds K-1 hops, or it is the wrap link of the line
//     variant.
//   * Arcs are the intervals between consecutive cuts: key cuts_[i] opens
//     the arc holding the healthy nodes in (cuts_[i], cuts_[i+1]], and
//     lens_[i] is its length. A single key's arc is the whole circle. With
//     no cuts (and any healthy nodes) the ring is one unbroken circular
//     arc of healthy_count_ nodes, and lens_ is empty.
//   * wasted_nodes_ is the sum of len % m over all arcs — exactly what
//     allocate() derives from its arc walk; usable nodes follow as
//     healthy_count_ - wasted_nodes_ (usable + wasted = healthy, always).
//
// A flip of node x with healthy neighbors p and s (ring order p -> x -> s)
// only changes the links incident to x, so cut membership can change at
// keys p and x only and every case edits at most two adjacent arcs:
//   * interior — no key changes: the arc holding x grows or shrinks by 1;
//   * cut_move — the key moves between p and x and keeps its arc length;
//     the arc before it gains or loses x;
//   * split    — a key appears: a down-flip cuts the arc holding x at p (one
//     word popcount over the shorter side), an up-flip opens the
//     one-node arc {x} after p;
//   * merge    — a key disappears: the two arcs either side of it join.
// A faulty run only grows on a down-flip (gap(p, s) = gap(p, x) + 1 +
// gap(x, s)), so a down-flip that keeps p -> x or x -> s as a cut makes
// p -> s one too; on an up-flip, a bypassable p -> s makes both new links
// bypassable. The case tables in take_down/bring_up rely on this.
// ---------------------------------------------------------------------------

KHopRingIncrementalAllocator::KHopRingIncrementalAllocator(const KHopRing& ring,
                                                           int tp_size_gpus)
    : ring_(ring), n_(ring.node_count()), circular_(ring.is_ring()) {
  if (tp_size_gpus <= 0 || tp_size_gpus % ring.gpus_per_node() != 0)
    throw ConfigError("TP size must be a positive multiple of GPUs/node");
  m_ = tp_size_gpus / ring.gpus_per_node();
}

int KHopRingIncrementalAllocator::next_healthy_of_faulty(int x) const {
  // Word-scan the packed healthy set clockwise, wrapping. Callers
  // guarantee at least one healthy node exists.
  const int s = healthy_.find_first_from(x + 1 == n_ ? 0 : x + 1);
  return s >= 0 ? s : healthy_.find_first_from(0);
}

int KHopRingIncrementalAllocator::gap(int p, int s) const {
  const int d = s - p - 1;  // p == s (lone node) -> n - 1
  return d < 0 ? d + n_ : d;
}

bool KHopRingIncrementalAllocator::is_cut_link(int p, int s) const {
  if (gap(p, s) > ring_.max_bypassable_run()) return true;
  return !circular_ && s <= p;  // the line variant has no wrap link
}

int KHopRingIncrementalAllocator::healthy_in(int a, int b) const {
  if (a < b) return healthy_.popcount_range(a + 1, b + 1);
  return healthy_.popcount_range(a + 1, n_) +
         healthy_.popcount_range(0, b + 1);
}

std::size_t KHopRingIncrementalAllocator::key_index(int key) const {
  return static_cast<std::size_t>(
      std::lower_bound(cuts_.begin(), cuts_.end(), key) - cuts_.begin());
}

std::size_t KHopRingIncrementalAllocator::before(std::size_t i) const {
  return (i == 0 ? cuts_.size() : i) - 1;
}

std::size_t KHopRingIncrementalAllocator::arc_holding(int x) const {
  // The largest key below x, wrapping to the last; x must not be a key.
  return before(key_index(x));
}

void KHopRingIncrementalAllocator::resize_arc(std::size_t i, int len) {
  wasted_nodes_ += len % m_ - lens_[i] % m_;
  lens_[i] = len;
}

void KHopRingIncrementalAllocator::step_arc_holding(int x, int delta) {
  if (obs::enabled()) alloc_obs().khop_interior.add(1);
  if (cuts_.empty()) {
    wasted_nodes_ = healthy_count_ % m_;  // the unbroken circle
  } else {
    const std::size_t i = arc_holding(x);
    resize_arc(i, lens_[i] + delta);
  }
}

void KHopRingIncrementalAllocator::move_key(std::size_t i, int key) {
  // No other key lies between the old and the new position in ring order,
  // so the key keeps its slot unless the move crosses the wrap point.
  if ((i == 0 || cuts_[i - 1] < key) &&
      (i + 1 == cuts_.size() || key < cuts_[i + 1])) {
    cuts_[i] = key;
    return;
  }
  const int len = lens_[i];
  cuts_.erase(cuts_.begin() + static_cast<std::ptrdiff_t>(i));
  lens_.erase(lens_.begin() + static_cast<std::ptrdiff_t>(i));
  const std::size_t j = key_index(key);
  cuts_.insert(cuts_.begin() + static_cast<std::ptrdiff_t>(j), key);
  lens_.insert(lens_.begin() + static_cast<std::ptrdiff_t>(j), len);
}

void KHopRingIncrementalAllocator::insert_key(int key, int len) {
  const std::size_t j = key_index(key);
  cuts_.insert(cuts_.begin() + static_cast<std::ptrdiff_t>(j), key);
  lens_.insert(lens_.begin() + static_cast<std::ptrdiff_t>(j), len);
  wasted_nodes_ += len % m_;
}

void KHopRingIncrementalAllocator::merge_key(std::size_t i, int delta) {
  const std::size_t b = before(i);
  resize_arc(b, lens_[b] + delta + lens_[i]);
  wasted_nodes_ -= lens_[i] % m_;
  cuts_.erase(cuts_.begin() + static_cast<std::ptrdiff_t>(i));
  lens_.erase(lens_.begin() + static_cast<std::ptrdiff_t>(i));
}

void KHopRingIncrementalAllocator::rebuild_from_healthy() {
  prev_.assign(static_cast<std::size_t>(n_), 0);
  next_.assign(static_cast<std::size_t>(n_), 0);
  healthy_count_ = healthy_.popcount();
  cuts_.clear();
  lens_.clear();
  // Link the healthy nodes circularly and collect cuts, straight off the
  // packed words. Cut keys come out ascending: stays sorted. Each key
  // first records its rank (#healthy up to and including it); consecutive
  // ranks differ by the arc length between them.
  int first = -1;
  int prev_node = -1;
  int rank = 0;
  fault::for_each_set_bit(healthy_, [&](int i) {
    if (first < 0) {
      first = i;
    } else {
      next_[static_cast<std::size_t>(prev_node)] = i;
      prev_[static_cast<std::size_t>(i)] = prev_node;
      if (is_cut_link(prev_node, i)) {
        cuts_.push_back(prev_node);
        lens_.push_back(rank);
      }
    }
    prev_node = i;
    ++rank;
  });
  if (prev_node >= 0) {  // close the circle (self-link for a lone node)
    next_[static_cast<std::size_t>(prev_node)] = first;
    prev_[static_cast<std::size_t>(first)] = prev_node;
    if (is_cut_link(prev_node, first)) {
      cuts_.push_back(prev_node);
      lens_.push_back(rank);
    }
  }
  wasted_nodes_ = 0;
  if (cuts_.empty()) {
    wasted_nodes_ = healthy_count_ % m_;
  } else {
    const int first_rank = lens_.front();
    for (std::size_t i = 0; i + 1 < lens_.size(); ++i)
      lens_[i] = lens_[i + 1] - lens_[i];
    lens_.back() = healthy_count_ - lens_.back() + first_rank;
    for (const int len : lens_) wasted_nodes_ += len % m_;
  }
  initialized_ = true;
}

void KHopRingIncrementalAllocator::take_down(int x) {
  const int p = prev_[static_cast<std::size_t>(x)];
  const int s = next_[static_cast<std::size_t>(x)];
  healthy_.set(x, false);
  if (--healthy_count_ == 0) {  // the lone node's arc vanishes
    if (obs::enabled())
      (cuts_.empty() ? alloc_obs().khop_interior : alloc_obs().khop_merge)
          .add(1);
    cuts_.clear();
    lens_.clear();
    wasted_nodes_ = 0;
    return;
  }
  next_[static_cast<std::size_t>(p)] = s;
  prev_[static_cast<std::size_t>(s)] = p;

  const bool cut_px = is_cut_link(p, x);
  if (is_cut_link(x, s)) {
    const std::size_t ix = key_index(x);
    if (cut_px) {
      // Merge: x's key disappears; p's arc {x} takes over x's old arc.
      if (obs::enabled()) alloc_obs().khop_merge.add(1);
      merge_key(ix, -1);
    } else {
      // Cut move x -> p: x leaves the arc before the key (the key's own
      // arc when it is the only one), which keeps its length.
      if (obs::enabled()) alloc_obs().khop_cut_move.add(1);
      const std::size_t b = before(ix);
      resize_arc(b, lens_[b] - 1);
      move_key(ix, p);
    }
  } else if (cut_px || !is_cut_link(p, s)) {
    step_arc_holding(x, -1);
  } else {
    // Split at p: the arc holding x loses it and breaks into (ca, p] and
    // (p, cb]. Popcount the shorter side; the other is the remainder.
    if (obs::enabled()) alloc_obs().khop_split.add(1);
    if (cuts_.empty()) {
      wasted_nodes_ = 0;
      insert_key(p, healthy_count_);
      return;
    }
    const std::size_t ia = arc_holding(p);
    const int ca = cuts_[ia];
    const int cb = cuts_[ia + 1 == cuts_.size() ? 0 : ia + 1];
    const int len = lens_[ia] - 1;
    const int head = gap(ca, p) <= gap(p, cb)
                         ? healthy_in(ca, p)
                         : len - healthy_in(p, cb);
    resize_arc(ia, head);
    insert_key(p, len - head);
  }
}

void KHopRingIncrementalAllocator::bring_up(int x) {
  healthy_.set(x, true);
  if (++healthy_count_ == 1) {  // a lone node: self-linked
    prev_[static_cast<std::size_t>(x)] = x;
    next_[static_cast<std::size_t>(x)] = x;
    wasted_nodes_ = 1 % m_;
    const bool cut = is_cut_link(x, x);
    if (obs::enabled())
      (cut ? alloc_obs().khop_split : alloc_obs().khop_interior).add(1);
    if (cut) {
      cuts_.assign(1, x);
      lens_.assign(1, 1);
    }
    return;
  }
  // Healthy neighbors of x (p == s when x joins a lone node): word-scan
  // the packed healthy set to the successor.
  const int s = next_healthy_of_faulty(x);
  const int p = prev_[static_cast<std::size_t>(s)];
  next_[static_cast<std::size_t>(p)] = x;
  prev_[static_cast<std::size_t>(x)] = p;
  next_[static_cast<std::size_t>(x)] = s;
  prev_[static_cast<std::size_t>(s)] = x;

  const bool cut_px = is_cut_link(p, x);
  const bool cut_xs = is_cut_link(x, s);
  if (!is_cut_link(p, s) || (cut_px && !cut_xs)) {
    step_arc_holding(x, +1);
  } else if (cut_px) {
    // Split: p's arc shrinks to {x}; x's new key opens the rest of it.
    if (obs::enabled()) alloc_obs().khop_split.add(1);
    const std::size_t ip = key_index(p);
    const int rest = lens_[ip];
    resize_arc(ip, 1);
    insert_key(x, rest);
  } else if (cut_xs) {
    // Cut move p -> x: x joins the arc before the key (the key's own arc
    // when it is the only one), which keeps its length.
    if (obs::enabled()) alloc_obs().khop_cut_move.add(1);
    const std::size_t ip = key_index(p);
    const std::size_t b = before(ip);
    resize_arc(b, lens_[b] + 1);
    move_key(ip, x);
  } else {
    // Merge: p's key disappears; the arcs either side of it join through x.
    if (obs::enabled()) alloc_obs().khop_merge.add(1);
    if (cuts_.size() == 1) {
      cuts_.clear();
      lens_.clear();
      wasted_nodes_ = healthy_count_ % m_;
      return;
    }
    merge_key(key_index(p), +1);
  }
}

void KHopRingIncrementalAllocator::fill_alloc() {
  alloc_.total_gpus = ring_.total_gpus();
  alloc_.faulty_gpus = (n_ - healthy_count_) * ring_.gpus_per_node();
  alloc_.usable_gpus =
      (healthy_count_ - wasted_nodes_) * ring_.gpus_per_node();
  alloc_.wasted_healthy_gpus = wasted_nodes_ * ring_.gpus_per_node();
}

const Allocation& KHopRingIncrementalAllocator::apply_words(
    const fault::PackedMask& mask,
    const std::vector<fault::WordDelta>& deltas) {
  IHBD_EXPECTS(mask.size() == n_);
  if (!initialized_) {
    healthy_ = mask.complement();
    rebuild_from_healthy();
  } else {
    for (const fault::WordDelta& d : deltas) {
      IHBD_EXPECTS(d.word >= 0 && d.word < healthy_.word_count());
      // Genuine changes only: our faulty word is the complement of the
      // healthy word over the valid bits.
      const std::uint64_t ours =
          ~healthy_.word(d.word) & healthy_.valid_mask(d.word);
      const std::uint64_t changed = mask.word(d.word) ^ ours;
      if (changed == 0) continue;
      if (obs::enabled()) alloc_obs().dirty_words.add(1);
      // Each flip reads its neighbors off the state the previous one left,
      // so bits are applied one at a time.
      fault::for_each_set_bit(changed, d.word, [&](int x) {
        if (healthy_.test(x))
          take_down(x);
        else
          bring_up(x);
      });
    }
  }
  fill_alloc();
  return alloc_;
}

// ---------------------------------------------------------------------------
// Per-island baseline allocators
//
// Every §6.1 baseline decomposes into islands that fragment independently,
// so the per-island aggregates below are exact restatements of the
// corresponding allocate() arithmetic — integer-only, hence bit-identical:
//   * modulo islands (Big-Switch / NVL / TPUv4 TP <= cube):
//       wasted = sum_i healthy_i % m
//   * TPUv4 pooled (TP > cube), with npc nodes per cube:
//       wasted = (healthy - clean_cubes * npc) + (clean_cubes * npc) % m
//   * SiP-Ring: wasted = sum_{broken rings} (m - faults_r) + trailing_healthy
// A flip touches exactly one island, so each update is O(1); seeding from a
// full mask is one masked popcount per island.
// ---------------------------------------------------------------------------

PerIslandAllocatorBase::PerIslandAllocatorBase(const HbdArchitecture& arch,
                                               int tp_size_gpus)
    : n_(arch.node_count()), gpus_per_node_(arch.gpus_per_node()) {
  if (tp_size_gpus <= 0 || tp_size_gpus % arch.gpus_per_node() != 0)
    throw ConfigError("TP size must be a positive multiple of GPUs/node");
  m_ = tp_size_gpus / arch.gpus_per_node();
  alloc_.total_gpus = arch.total_gpus();
}

void PerIslandAllocatorBase::initialize_from(const fault::PackedMask& mask) {
  faulty_ = mask;
  healthy_count_ = n_ - mask.popcount();
  init_islands(faulty_);
  initialized_ = true;
}

const Allocation& PerIslandAllocatorBase::finish() {
  const int wasted = wasted_nodes();
  alloc_.faulty_gpus = (n_ - healthy_count_) * gpus_per_node_;
  alloc_.usable_gpus = (healthy_count_ - wasted) * gpus_per_node_;
  alloc_.wasted_healthy_gpus = wasted * gpus_per_node_;
  return alloc_;
}

const Allocation& PerIslandAllocatorBase::apply_words(
    const fault::PackedMask& mask,
    const std::vector<fault::WordDelta>& deltas) {
  IHBD_EXPECTS(mask.size() == n_);
  if (!initialized_) {
    initialize_from(mask);
    return finish();
  }
  for (const fault::WordDelta& d : deltas) {
    IHBD_EXPECTS(d.word >= 0 && d.word < faulty_.word_count());
    // Spurious-flip filtering is one word compare; the genuine flips split
    // by direction with two ANDs.
    const std::uint64_t changed = mask.word(d.word) ^ faulty_.word(d.word);
    if (changed == 0) continue;
    const std::uint64_t now_faulty = changed & mask.word(d.word);
    const std::uint64_t now_healthy = changed ^ now_faulty;
    healthy_count_ +=
        std::popcount(now_healthy) - std::popcount(now_faulty);
    faulty_.apply_xor(d.word, changed);
    fault::for_each_set_bit(now_faulty, d.word,
                            [&](int x) { island_flip(x, true); });
    fault::for_each_set_bit(now_healthy, d.word,
                            [&](int x) { island_flip(x, false); });
    if (obs::enabled()) {
      AllocObs& o = alloc_obs();
      o.dirty_words.add(1);
      o.island_flips.add(static_cast<std::uint64_t>(std::popcount(changed)));
    }
  }
  return finish();
}

IslandModuloAllocator::IslandModuloAllocator(const HbdArchitecture& arch,
                                             IslandPartition islands,
                                             int tp_size_gpus)
    : PerIslandAllocatorBase(arch, tp_size_gpus), islands_(islands) {
  IHBD_EXPECTS(islands_.node_count == arch.node_count());
  // Modulo islands partition the cluster exactly; a trailing remainder
  // would need SiP-Ring-style special casing.
  IHBD_EXPECTS(islands_.node_count % islands_.nodes_per_island == 0);
  island_of_.resize(static_cast<std::size_t>(islands_.node_count));
  for (int i = 0; i < islands_.node_count; ++i)
    island_of_[static_cast<std::size_t>(i)] = islands_.island_of(i);
  residue_.resize(static_cast<std::size_t>(islands_.nodes_per_island) + 1);
  for (int h = 0; h <= islands_.nodes_per_island; ++h)
    residue_[static_cast<std::size_t>(h)] = h % m_;
}

void IslandModuloAllocator::init_islands(const fault::PackedMask& faulty) {
  const int count = islands_.full_island_count();
  island_healthy_.assign(static_cast<std::size_t>(count), 0);
  wasted_nodes_ = 0;
  for (int i = 0; i < count; ++i) {
    const int healthy =
        islands_.nodes_per_island -
        faulty.popcount_range(islands_.island_begin(i), islands_.island_end(i));
    island_healthy_[static_cast<std::size_t>(i)] = healthy;
    wasted_nodes_ += healthy % m_;
  }
}

void IslandModuloAllocator::island_flip(int node, bool to_faulty) {
  int& healthy = island_healthy_[static_cast<std::size_t>(
      island_of_[static_cast<std::size_t>(node)])];
  const int next = healthy + (to_faulty ? -1 : 1);
  wasted_nodes_ += residue_[static_cast<std::size_t>(next)] -
                   residue_[static_cast<std::size_t>(healthy)];
  healthy = next;
}

TpuCubePoolAllocator::TpuCubePoolAllocator(const TpuV4& tpu, int tp_size_gpus)
    : PerIslandAllocatorBase(tpu, tp_size_gpus),
      cubes_(tpu.island_partition()) {
  IHBD_EXPECTS(tp_size_gpus > tpu.cube_gpus());
  cube_of_.resize(static_cast<std::size_t>(cubes_.node_count));
  for (int i = 0; i < cubes_.node_count; ++i)
    cube_of_[static_cast<std::size_t>(i)] = cubes_.island_of(i);
}

void TpuCubePoolAllocator::init_islands(const fault::PackedMask& faulty) {
  const int count = cubes_.full_island_count();
  cube_faulty_.assign(static_cast<std::size_t>(count), 0);
  clean_cubes_ = 0;
  for (int c = 0; c < count; ++c) {
    const int faults =
        faulty.popcount_range(cubes_.island_begin(c), cubes_.island_end(c));
    cube_faulty_[static_cast<std::size_t>(c)] = faults;
    if (faults == 0) ++clean_cubes_;
  }
}

void TpuCubePoolAllocator::island_flip(int node, bool to_faulty) {
  int& faults =
      cube_faulty_[static_cast<std::size_t>(
          cube_of_[static_cast<std::size_t>(node)])];
  if (to_faulty) {
    if (faults++ == 0) --clean_cubes_;
  } else {
    if (--faults == 0) ++clean_cubes_;
  }
}

int TpuCubePoolAllocator::wasted_nodes() const {
  const int pool = clean_cubes_ * cubes_.nodes_per_island;
  return (healthy_count() - pool) + pool % m_;
}

SipRingIncrementalAllocator::SipRingIncrementalAllocator(const SipRing& sip,
                                                         int tp_size_gpus)
    : PerIslandAllocatorBase(sip, tp_size_gpus),
      rings_(sip.ring_partition(m_)) {
  ring_of_.resize(static_cast<std::size_t>(rings_.node_count));
  for (int i = 0; i < rings_.node_count; ++i)
    ring_of_[static_cast<std::size_t>(i)] = rings_.island_of(i);
}

void SipRingIncrementalAllocator::init_islands(
    const fault::PackedMask& faulty) {
  const int count = rings_.full_island_count();
  ring_faulty_.assign(static_cast<std::size_t>(count), 0);
  broken_waste_nodes_ = 0;
  for (int r = 0; r < count; ++r) {
    const int begin = rings_.island_begin(r);
    const int faults = faulty.popcount_range(begin, begin + m_);
    ring_faulty_[static_cast<std::size_t>(r)] = faults;
    if (faults > 0) broken_waste_nodes_ += m_ - faults;
  }
  const int trail_begin = rings_.island_begin(count);
  trailing_healthy_ = node_count() - trail_begin -
                      faulty.popcount_range(trail_begin, node_count());
}

void SipRingIncrementalAllocator::island_flip(int node, bool to_faulty) {
  const int ring = ring_of_[static_cast<std::size_t>(node)];
  if (ring >= rings_.full_island_count()) {
    trailing_healthy_ += to_faulty ? -1 : 1;
    return;
  }
  int& faults = ring_faulty_[static_cast<std::size_t>(ring)];
  // A broken ring wastes its m - faults healthy members; an intact ring
  // wastes none.
  broken_waste_nodes_ -= faults > 0 ? m_ - faults : 0;
  faults += to_faulty ? 1 : -1;
  broken_waste_nodes_ += faults > 0 ? m_ - faults : 0;
}

std::unique_ptr<IncrementalAllocator> make_incremental_allocator(
    const HbdArchitecture& arch, int tp_size_gpus) {
  if (const auto* ring = dynamic_cast<const KHopRing*>(&arch))
    return std::make_unique<KHopRingIncrementalAllocator>(*ring, tp_size_gpus);
  if (const auto* bs = dynamic_cast<const BigSwitch*>(&arch))
    return std::make_unique<IslandModuloAllocator>(
        *bs, bs->island_partition(), tp_size_gpus);
  if (const auto* nvl = dynamic_cast<const NvlSwitch*>(&arch))
    return std::make_unique<IslandModuloAllocator>(
        *nvl, nvl->island_partition(), tp_size_gpus);
  if (const auto* tpu = dynamic_cast<const TpuV4*>(&arch)) {
    if (tp_size_gpus > tpu->cube_gpus())
      return std::make_unique<TpuCubePoolAllocator>(*tpu, tp_size_gpus);
    return std::make_unique<IslandModuloAllocator>(
        *tpu, tpu->island_partition(), tp_size_gpus);
  }
  if (const auto* sip = dynamic_cast<const SipRing*>(&arch))
    return std::make_unique<SipRingIncrementalAllocator>(*sip, tp_size_gpus);
  throw ConfigError("no incremental allocator for architecture " +
                    arch.name());
}

}  // namespace ihbd::topo
