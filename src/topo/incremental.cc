#include "src/topo/incremental.h"

#include <bit>
#include <cstdint>

#include "src/common/contracts.h"
#include "src/common/error.h"
#include "src/obs/metrics.h"

namespace ihbd::topo {

namespace {

/// K-Hop allocator metrics (src/obs): how often each flip case fires.
/// Recording sits behind obs::enabled() so the flip paths are unperturbed
/// by default.
struct AllocObs {
  obs::Counter& khop_interior;  ///< KHop flip, cut keys unchanged
  obs::Counter& khop_cut_move;  ///< KHop flip, one cut key moves p <-> x
  obs::Counter& khop_split;     ///< KHop flip, a cut key appears
  obs::Counter& khop_merge;     ///< KHop flip, a cut key disappears
};

AllocObs& alloc_obs() {
  static AllocObs o{obs::counter("alloc.khop.interior"),
                    obs::counter("alloc.khop.cut_move"),
                    obs::counter("alloc.khop.split"),
                    obs::counter("alloc.khop.merge")};
  return o;
}

/// Nodes per TP group; throws unless `tp_size_gpus` is a positive multiple
/// of arch.gpus_per_node() (the same contract as allocate()).
int group_nodes(const HbdArchitecture& arch, int tp_size_gpus) {
  if (tp_size_gpus <= 0 || tp_size_gpus % arch.gpus_per_node() != 0)
    throw ConfigError("TP size must be a positive multiple of GPUs/node");
  return tp_size_gpus / arch.gpus_per_node();
}

}  // namespace

// ---------------------------------------------------------------------------
// KHopRingIncrementalAllocator
//
// Invariants (mirroring KHopRing::healthy_arcs exactly):
//   * healthy_ (set bit = healthy node) / healthy_count_ track the healthy
//     node set, and prev_/next_ link the healthy nodes into a circular
//     list (entries for faulty nodes are stale until they come back up).
//   * keys_ has a bit set at every healthy position p whose link to the
//     next healthy node s (clockwise, wrapping) is NOT bypassable: the
//     faulty gap between them exceeds K-1 hops, or it is the wrap link of
//     the line variant. key_count_ counts them, and bit w of key_words_ is
//     set iff word w of keys_ is nonzero.
//   * Arcs are the intervals between consecutive keys: key p opens the arc
//     holding the healthy nodes in (p, next_key(p)], and len_at_[p] is its
//     length. A single key's arc is the whole circle. With no keys (and
//     any healthy nodes) the ring is one unbroken circular arc of
//     healthy_count_ nodes.
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
    : ring_(ring), n_(ring.node_count()),
      m_(group_nodes(ring, tp_size_gpus)), circular_(ring.is_ring()) {}

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

int KHopRingIncrementalAllocator::prev_key(int x) const {
  // Keys below x in x's own word, else the last nonzero key word before
  // it, else (wrapping) the last nonzero key word of all. Needs a key.
  constexpr int kBits = fault::PackedMask::kWordBits;
  int w = x / kBits;
  const std::uint64_t below = (std::uint64_t{1} << (x % kBits)) - 1;
  std::uint64_t bits = keys_.word(w) & below;
  if (bits == 0) {
    w = key_words_.find_last_before(w);
    if (w < 0) w = key_words_.find_last_before(key_words_.size());
    bits = keys_.word(w);
  }
  return w * kBits + kBits - 1 - std::countl_zero(bits);
}

int KHopRingIncrementalAllocator::next_key(int x) const {
  // The mirror of prev_key: keys above x in its word, else the first
  // nonzero key word after it, else (wrapping) the first of all.
  constexpr int kBits = fault::PackedMask::kWordBits;
  int w = x / kBits;
  const std::uint64_t above = ~std::uint64_t{1} << (x % kBits);
  std::uint64_t bits = keys_.word(w) & above;
  if (bits == 0) {
    w = key_words_.find_first_from(w + 1);
    if (w < 0) w = key_words_.find_first_from(0);
    bits = keys_.word(w);
  }
  return w * kBits + std::countr_zero(bits);
}

void KHopRingIncrementalAllocator::add_key(int key, int len) {
  keys_.set(key, true);
  key_words_.set(key / fault::PackedMask::kWordBits, true);
  len_at_[static_cast<std::size_t>(key)] = len;
  ++key_count_;
}

void KHopRingIncrementalAllocator::drop_key(int key) {
  const int w = key / fault::PackedMask::kWordBits;
  keys_.set(key, false);
  if (keys_.word(w) == 0) key_words_.set(w, false);
  --key_count_;
}

void KHopRingIncrementalAllocator::resize_arc(int key, int len) {
  int& cur = len_at_[static_cast<std::size_t>(key)];
  wasted_nodes_ += len % m_ - cur % m_;
  cur = len;
}

void KHopRingIncrementalAllocator::step_arc_holding(int x, int delta) {
  if (obs::enabled()) alloc_obs().khop_interior.add(1);
  if (key_count_ == 0) {
    wasted_nodes_ = healthy_count_ % m_;  // the unbroken circle
  } else {
    // x is no key, so the arc holding it opens at the key before it.
    const int k = prev_key(x);
    resize_arc(k, len_at_[static_cast<std::size_t>(k)] + delta);
  }
}

void KHopRingIncrementalAllocator::move_key(int from, int to) {
  const int len = len_at_[static_cast<std::size_t>(from)];
  drop_key(from);
  add_key(to, len);
}

void KHopRingIncrementalAllocator::insert_key(int key, int len) {
  add_key(key, len);
  wasted_nodes_ += len % m_;
}

void KHopRingIncrementalAllocator::merge_key(int key, int delta) {
  const int b = prev_key(key);
  const int len = len_at_[static_cast<std::size_t>(key)];
  resize_arc(b, len_at_[static_cast<std::size_t>(b)] + delta + len);
  wasted_nodes_ -= len % m_;
  drop_key(key);
}

void KHopRingIncrementalAllocator::rebuild_from_healthy() {
  prev_.assign(static_cast<std::size_t>(n_), 0);
  next_.assign(static_cast<std::size_t>(n_), 0);
  healthy_count_ = healthy_.popcount();
  keys_ = fault::PackedMask(n_);
  key_words_ = fault::PackedMask(keys_.word_count());
  len_at_.assign(static_cast<std::size_t>(n_), 0);
  key_count_ = 0;
  wasted_nodes_ = 0;
  // Link the healthy nodes circularly and collect cuts, straight off the
  // packed words. Keys come out ascending, each with its rank (#healthy up
  // to and including it); consecutive ranks differ by the arc length
  // between them.
  int first = -1;
  int prev_node = -1;
  int rank = 0;
  int first_rank = 0;
  int last_key = -1, last_rank = 0;
  const auto cut_at = [&](int key) {
    if (last_key < 0) {
      first_rank = rank;
    } else {
      insert_key(last_key, rank - last_rank);
    }
    last_key = key;
    last_rank = rank;
  };
  fault::for_each_set_bit(healthy_, [&](int i) {
    if (first < 0) {
      first = i;
    } else {
      next_[static_cast<std::size_t>(prev_node)] = i;
      prev_[static_cast<std::size_t>(i)] = prev_node;
      if (is_cut_link(prev_node, i)) cut_at(prev_node);
    }
    prev_node = i;
    ++rank;
  });
  if (prev_node >= 0) {  // close the circle (self-link for a lone node)
    next_[static_cast<std::size_t>(prev_node)] = first;
    prev_[static_cast<std::size_t>(first)] = prev_node;
    if (is_cut_link(prev_node, first)) cut_at(prev_node);
  }
  if (last_key < 0) {
    wasted_nodes_ = healthy_count_ % m_;
  } else {
    // The last key's arc wraps round to the first key.
    insert_key(last_key, healthy_count_ - last_rank + first_rank);
  }
  initialized_ = true;
}

void KHopRingIncrementalAllocator::take_down(int x) {
  const int p = prev_[static_cast<std::size_t>(x)];
  const int s = next_[static_cast<std::size_t>(x)];
  healthy_.set(x, false);
  if (--healthy_count_ == 0) {  // the lone node's arc vanishes
    if (obs::enabled())
      (key_count_ == 0 ? alloc_obs().khop_interior : alloc_obs().khop_merge)
          .add(1);
    if (key_count_ != 0) drop_key(x);  // the lone node is the only key
    wasted_nodes_ = 0;
    return;
  }
  next_[static_cast<std::size_t>(p)] = s;
  prev_[static_cast<std::size_t>(s)] = p;

  const bool cut_px = is_cut_link(p, x);
  if (is_cut_link(x, s)) {
    if (cut_px) {
      // Merge: x's key disappears; p's arc {x} takes over x's old arc.
      if (obs::enabled()) alloc_obs().khop_merge.add(1);
      merge_key(x, -1);
    } else {
      // Cut move x -> p: x leaves the arc before the key (the key's own
      // arc when it is the only one), which keeps its length.
      if (obs::enabled()) alloc_obs().khop_cut_move.add(1);
      const int b = prev_key(x);
      resize_arc(b, len_at_[static_cast<std::size_t>(b)] - 1);
      move_key(x, p);
    }
  } else if (cut_px || !is_cut_link(p, s)) {
    step_arc_holding(x, -1);
  } else {
    // Split at p: the arc holding x loses it and breaks into (ca, p] and
    // (p, cb]. Popcount the shorter side; the other is the remainder.
    if (obs::enabled()) alloc_obs().khop_split.add(1);
    if (key_count_ == 0) {
      wasted_nodes_ = 0;
      insert_key(p, healthy_count_);
      return;
    }
    // Neither p nor x is a key, so the arc holding them runs from ca to
    // cb (one and the same key when it is the only one).
    const int ca = prev_key(p);
    const int cb = next_key(p);
    const int len = len_at_[static_cast<std::size_t>(ca)] - 1;
    const int head = gap(ca, p) <= gap(p, cb)
                         ? healthy_in(ca, p)
                         : len - healthy_in(p, cb);
    resize_arc(ca, head);
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
    if (cut) add_key(x, 1);
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
    const int rest = len_at_[static_cast<std::size_t>(p)];
    resize_arc(p, 1);
    insert_key(x, rest);
  } else if (cut_xs) {
    // Cut move p -> x: x joins the arc before the key (the key's own arc
    // when it is the only one), which keeps its length.
    if (obs::enabled()) alloc_obs().khop_cut_move.add(1);
    const int b = prev_key(p);
    resize_arc(b, len_at_[static_cast<std::size_t>(b)] + 1);
    move_key(p, x);
  } else {
    // Merge: p's key disappears; the arcs either side of it join through x.
    if (obs::enabled()) alloc_obs().khop_merge.add(1);
    if (key_count_ == 1) {
      drop_key(p);
      wasted_nodes_ = healthy_count_ % m_;
      return;
    }
    merge_key(p, +1);
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
    const fault::PackedMask& mask, std::span<const fault::WordDelta> deltas) {
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
// IslandAllocator
//
// Every §6.1 baseline decomposes into islands that fragment independently,
// so the per-island aggregates below are exact restatements of the
// corresponding allocate() arithmetic — integer-only, hence bit-identical.
// waste_of_[h] is one island's share of the waste at h healthy nodes: h % m
// under the modulo rule; under the pooled rule h for a faulted island and 0
// for a clean one, whose nodes join the pool that wastes
// (clean_islands_ * nodes_per_island) % m. A flip touches exactly one
// island, so each update is O(1); seeding from a full mask is one masked
// popcount per island.
// ---------------------------------------------------------------------------

IslandAllocator::IslandAllocator(const HbdArchitecture& arch,
                                 IslandPartition islands, int tp_size_gpus,
                                 bool pooled)
    : islands_(islands), m_(group_nodes(arch, tp_size_gpus)),
      gpus_per_node_(arch.gpus_per_node()), pooled_(pooled) {
  IHBD_EXPECTS(islands_.node_count == arch.node_count());
  alloc_.total_gpus = arch.total_gpus();
  const int size = islands_.nodes_per_island;
  island_of_.resize(static_cast<std::size_t>(islands_.node_count));
  for (int i = 0; i < islands_.node_count; ++i)
    island_of_[static_cast<std::size_t>(i)] = islands_.island_of(i);
  waste_of_.resize(static_cast<std::size_t>(size) + 1);
  for (int h = 0; h <= size; ++h)
    waste_of_[static_cast<std::size_t>(h)] =
        !pooled_ ? h % m_ : h < size ? h : 0;
}

void IslandAllocator::initialize_from(const fault::PackedMask& mask) {
  faulty_ = mask;
  healthy_count_ = islands_.node_count - mask.popcount();
  // Complete islands plus the short remainder, if any.
  const int count = islands_.island_of(islands_.node_count - 1) + 1;
  island_healthy_.assign(static_cast<std::size_t>(count), 0);
  island_waste_ = 0;
  clean_islands_ = 0;
  for (int i = 0; i < count; ++i) {
    const int begin = islands_.island_begin(i);
    const int end = islands_.island_end(i);
    const int healthy = end - begin - mask.popcount_range(begin, end);
    island_healthy_[static_cast<std::size_t>(i)] = healthy;
    island_waste_ += waste_of_[static_cast<std::size_t>(healthy)];
    if (healthy == islands_.nodes_per_island) ++clean_islands_;
  }
  initialized_ = true;
}

void IslandAllocator::flip(int node, int step) {
  int& healthy = island_healthy_[static_cast<std::size_t>(
      island_of_[static_cast<std::size_t>(node)])];
  const int size = islands_.nodes_per_island;
  island_waste_ -= waste_of_[static_cast<std::size_t>(healthy)];
  clean_islands_ -= healthy == size;
  healthy += step;
  island_waste_ += waste_of_[static_cast<std::size_t>(healthy)];
  clean_islands_ += healthy == size;
}

const Allocation& IslandAllocator::finish() {
  int wasted = island_waste_;
  if (pooled_) wasted += clean_islands_ * islands_.nodes_per_island % m_;
  alloc_.faulty_gpus = (islands_.node_count - healthy_count_) * gpus_per_node_;
  alloc_.usable_gpus = (healthy_count_ - wasted) * gpus_per_node_;
  alloc_.wasted_healthy_gpus = wasted * gpus_per_node_;
  return alloc_;
}

const Allocation& IslandAllocator::apply_words(
    const fault::PackedMask& mask, std::span<const fault::WordDelta> deltas) {
  IHBD_EXPECTS(mask.size() == islands_.node_count);
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
    fault::for_each_set_bit(now_faulty, d.word, [&](int x) { flip(x, -1); });
    fault::for_each_set_bit(now_healthy, d.word, [&](int x) { flip(x, +1); });
  }
  return finish();
}

std::unique_ptr<IncrementalAllocator> make_incremental_allocator(
    const HbdArchitecture& arch, int tp_size_gpus) {
  if (const auto* ring = dynamic_cast<const KHopRing*>(&arch))
    return std::make_unique<KHopRingIncrementalAllocator>(*ring, tp_size_gpus);
  if (const auto* bs = dynamic_cast<const BigSwitch*>(&arch))
    return std::make_unique<IslandAllocator>(*bs, bs->island_partition(),
                                             tp_size_gpus, /*pooled=*/false);
  if (const auto* nvl = dynamic_cast<const NvlSwitch*>(&arch))
    return std::make_unique<IslandAllocator>(*nvl, nvl->island_partition(),
                                             tp_size_gpus, /*pooled=*/false);
  if (const auto* tpu = dynamic_cast<const TpuV4*>(&arch))
    return std::make_unique<IslandAllocator>(
        *tpu, tpu->island_partition(), tp_size_gpus,
        /*pooled=*/tp_size_gpus > tpu->cube_gpus());
  if (const auto* sip = dynamic_cast<const SipRing*>(&arch))
    return std::make_unique<IslandAllocator>(
        *sip, sip->ring_partition(group_nodes(*sip, tp_size_gpus)),
        tp_size_gpus, /*pooled=*/false);
  throw ConfigError("no incremental allocator for architecture " +
                    arch.name());
}

}  // namespace ihbd::topo
