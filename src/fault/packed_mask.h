// Packed 64-bit fault masks — the library's one fault-mask type.
//
// Every API that takes, returns or stores a set of faulty nodes uses
// PackedMask: trace sampling (FaultTrace::faulty_at, sample_fault_mask),
// HBD allocation, orchestration and placement repair (src/orch), the
// cluster facade (src/core) and the control plane (src/ctrl).
//
// A PackedMask stores one bit per node in 64-bit words, so the replay hot
// path works at word granularity instead of node granularity: healthy and
// faulty counts are popcounts, spurious-flip filtering is a word XOR, and a
// whole same-day transition batch collapses into a handful of
// {word_index, xor_bits} deltas (WordDelta) that FaultMaskCursor emits and
// the incremental allocators consume directly (see
// FaultMaskCursor::advance_to_words and IncrementalAllocator::apply_words).
//
// Invariant: bits at positions >= size() in the last word are always zero
// (the "tail" stays clear), so popcount() over raw words needs no masking
// and operator== is plain word equality. Every mutator preserves it;
// apply_xor requires it of its input.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/contracts.h"

namespace ihbd::fault {

/// One word-granular mask delta: XOR-ing `xor_bits` into word `word` flips
/// exactly the nodes whose bits are set. A batch of WordDeltas (ascending
/// `word`, each `xor_bits` nonzero) reports a replay step's net flips.
struct WordDelta {
  int word = 0;
  std::uint64_t xor_bits = 0;

  friend bool operator==(const WordDelta&, const WordDelta&) = default;
};

class PackedMask {
 public:
  static constexpr int kWordBits = 64;

  PackedMask() = default;
  /// An all-clear mask over `bit_count` bits.
  explicit PackedMask(int bit_count)
      : bits_(bit_count),
        words_(static_cast<std::size_t>((bit_count + kWordBits - 1) /
                                        kWordBits),
               0) {
    IHBD_EXPECTS(bit_count >= 0);
  }

  /// Bit i set iff bits[i]. Implicit on purpose: the repository benchmark
  /// (perfbench/ctrl_workloads.cc, drive_orch) still passes a
  /// std::vector<bool> to orch::IncrementalPlacement. Make this explicit
  /// once that driver passes a PackedMask.
  PackedMask(const std::vector<bool>& bits);

  int size() const { return bits_; }
  int word_count() const { return static_cast<int>(words_.size()); }

  bool test(int i) const {
    IHBD_EXPECTS(i >= 0 && i < bits_);
    return (words_[static_cast<std::size_t>(i / kWordBits)] >>
            (i % kWordBits)) &
           1u;
  }

  void set(int i, bool value) {
    IHBD_EXPECTS(i >= 0 && i < bits_);
    const std::uint64_t bit = std::uint64_t{1} << (i % kWordBits);
    auto& w = words_[static_cast<std::size_t>(i / kWordBits)];
    if (value)
      w |= bit;
    else
      w &= ~bit;
  }

  void flip(int i) {
    IHBD_EXPECTS(i >= 0 && i < bits_);
    words_[static_cast<std::size_t>(i / kWordBits)] ^=
        std::uint64_t{1} << (i % kWordBits);
  }

  std::uint64_t word(int w) const {
    IHBD_EXPECTS(w >= 0 && w < word_count());
    return words_[static_cast<std::size_t>(w)];
  }

  /// Bits of word `w` that correspond to positions < size() (all-ones
  /// except possibly the last word).
  std::uint64_t valid_mask(int w) const {
    IHBD_EXPECTS(w >= 0 && w < word_count());
    const int tail = bits_ - w * kWordBits;
    return tail >= kWordBits ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << tail) - 1;
  }

  /// XOR `bits` into word `w`. `bits` must not touch the tail.
  void apply_xor(int w, std::uint64_t bits) {
    IHBD_EXPECTS(w >= 0 && w < word_count());
    IHBD_EXPECTS((bits & ~valid_mask(w)) == 0);
    words_[static_cast<std::size_t>(w)] ^= bits;
  }

  /// Number of set bits.
  int popcount() const {
    int n = 0;
    for (const std::uint64_t w : words_) n += std::popcount(w);
    return n;
  }

  /// Number of set bits in positions [begin, end).
  int popcount_range(int begin, int end) const;

  /// Smallest set-bit position >= from, or -1 when none. `from` == size()
  /// is allowed (returns -1), so scans can pass one-past-the-last.
  int find_first_from(int from) const;

  /// The bitwise complement over the valid positions (tail stays clear):
  /// a faulty mask's complement is the healthy mask.
  PackedMask complement() const;

  const std::uint64_t* data() const { return words_.data(); }

  friend bool operator==(const PackedMask&, const PackedMask&) = default;

 private:
  int bits_ = 0;
  std::vector<std::uint64_t> words_;  // tail bits always zero
};

/// Call `fn(position)` for every set bit of `bits`, ascending, where the
/// word sits at index `word` of a mask (positions are absolute).
template <typename Fn>
void for_each_set_bit(std::uint64_t bits, int word, Fn&& fn) {
  while (bits != 0) {
    fn(word * PackedMask::kWordBits + std::countr_zero(bits));
    bits &= bits - 1;
  }
}

/// Call `fn(position)` for every set bit of `mask`, ascending.
template <typename Fn>
void for_each_set_bit(const PackedMask& mask, Fn&& fn) {
  for (int w = 0; w < mask.word_count(); ++w)
    for_each_set_bit(mask.word(w), w, fn);
}

}  // namespace ihbd::fault
