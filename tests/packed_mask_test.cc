// Randomized differential tests for fault::PackedMask against a
// std::vector<bool> oracle: every word-parallel operation (set / flip /
// XOR-apply / popcount / range popcount / first- and last-set scans /
// complement / dirty-word enumeration) must agree with the naive per-node
// computation, across word-boundary sizes (N % 64 in {0, 1, 63}) and
// degenerate all-healthy / all-faulty masks.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/fault/packed_mask.h"

namespace ihbd::fault {
namespace {

// Sizes straddling word boundaries plus small degenerate ones.
const int kSizes[] = {1, 63, 64, 65, 127, 128, 191, 192, 720};

std::vector<bool> random_bools(int n, double p, Rng& rng) {
  std::vector<bool> bits(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) bits[static_cast<std::size_t>(i)] =
      rng.bernoulli(p);
  return bits;
}

int oracle_popcount_range(const std::vector<bool>& bits, int begin, int end) {
  int count = 0;
  for (int i = begin; i < end; ++i)
    count += bits[static_cast<std::size_t>(i)] ? 1 : 0;
  return count;
}

int oracle_find_first_from(const std::vector<bool>& bits, int from) {
  for (int i = from; i < static_cast<int>(bits.size()); ++i)
    if (bits[static_cast<std::size_t>(i)]) return i;
  return -1;
}

int oracle_find_last_before(const std::vector<bool>& bits, int to) {
  for (int i = to - 1; i >= 0; --i)
    if (bits[static_cast<std::size_t>(i)]) return i;
  return -1;
}

void expect_matches_oracle(const PackedMask& mask,
                           const std::vector<bool>& bits) {
  ASSERT_EQ(mask.size(), static_cast<int>(bits.size()));
  int oracle_count = 0;
  for (int i = 0; i < mask.size(); ++i) {
    ASSERT_EQ(mask.test(i), bits[static_cast<std::size_t>(i)]) << "bit " << i;
    oracle_count += bits[static_cast<std::size_t>(i)] ? 1 : 0;
  }
  EXPECT_EQ(mask.popcount(), oracle_count);
  // Tail invariant: no set bit at or beyond size() in the last word.
  if (mask.word_count() > 0) {
    const int last = mask.word_count() - 1;
    EXPECT_EQ(mask.word(last) & ~mask.valid_mask(last), 0u);
  }
}

TEST(PackedMask, ConvertingConstructorMatchesSetAtWordBoundaries) {
  Rng rng(1234);
  for (const int n : {0, 1, 63, 64, 65, 130}) {
    for (const double p : {0.0, 0.03, 0.5, 1.0}) {
      const auto bits = random_bools(n, p, rng);
      const PackedMask converted(bits);
      PackedMask built(n);
      for (int i = 0; i < n; ++i)
        built.set(i, bits[static_cast<std::size_t>(i)]);
      EXPECT_EQ(converted, built) << "n=" << n << " p=" << p;
      // Per-bit agreement, popcount and a clear tail.
      expect_matches_oracle(converted, bits);
    }
  }
}

TEST(PackedMask, RandomSetFlipWalkMatchesOracle) {
  Rng rng(77);
  for (const int n : kSizes) {
    PackedMask mask(n);
    std::vector<bool> oracle(static_cast<std::size_t>(n));
    for (int step = 0; step < 400; ++step) {
      const int i = static_cast<int>(rng.uniform_index(
          static_cast<std::uint64_t>(n)));
      if (rng.bernoulli(0.5)) {
        const bool v = rng.bernoulli(0.5);
        mask.set(i, v);
        oracle[static_cast<std::size_t>(i)] = v;
      } else {
        mask.flip(i);
        oracle[static_cast<std::size_t>(i)] =
            !oracle[static_cast<std::size_t>(i)];
      }
    }
    expect_matches_oracle(mask, oracle);
  }
}

TEST(PackedMask, ApplyXorMatchesPerBitFlips) {
  Rng rng(991);
  for (const int n : kSizes) {
    auto bits = random_bools(n, 0.3, rng);
    PackedMask mask(bits);
    for (int round = 0; round < 50; ++round) {
      const int w = static_cast<int>(rng.uniform_index(
          static_cast<std::uint64_t>(mask.word_count())));
      const std::uint64_t xor_bits = rng.next() & mask.valid_mask(w);
      mask.apply_xor(w, xor_bits);
      for_each_set_bit(xor_bits, w, [&](int i) {
        bits[static_cast<std::size_t>(i)] =
            !bits[static_cast<std::size_t>(i)];
      });
    }
    expect_matches_oracle(mask, bits);
  }
}

TEST(PackedMask, PopcountRangeMatchesOracle) {
  Rng rng(5150);
  for (const int n : kSizes) {
    const auto bits = random_bools(n, 0.4, rng);
    const PackedMask mask(bits);
    for (int round = 0; round < 200; ++round) {
      const int begin =
          static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(n)));
      const int end = begin + static_cast<int>(rng.uniform_index(
                                  static_cast<std::uint64_t>(n - begin + 1)));
      EXPECT_EQ(mask.popcount_range(begin, end),
                oracle_popcount_range(bits, begin, end))
          << "n=" << n << " [" << begin << "," << end << ")";
    }
    EXPECT_EQ(mask.popcount_range(0, n), mask.popcount());
    EXPECT_EQ(mask.popcount_range(n, n), 0);
  }
}

TEST(PackedMask, FindFirstFromMatchesOracle) {
  Rng rng(31337);
  for (const int n : kSizes) {
    for (const double p : {0.0, 0.05, 1.0}) {
      const auto bits = random_bools(n, p, rng);
      const PackedMask mask(bits);
      for (int from = 0; from <= n; ++from)
        EXPECT_EQ(mask.find_first_from(from),
                  oracle_find_first_from(bits, from))
            << "n=" << n << " p=" << p << " from=" << from;
    }
  }
}

TEST(PackedMask, FindLastBeforeMatchesOracle) {
  Rng rng(27182);
  for (const int n : kSizes) {
    for (const double p : {0.0, 0.05, 1.0}) {
      const auto bits = random_bools(n, p, rng);
      const PackedMask mask(bits);
      for (int to = 0; to <= n; ++to)
        EXPECT_EQ(mask.find_last_before(to),
                  oracle_find_last_before(bits, to))
            << "n=" << n << " p=" << p << " to=" << to;
    }
  }
}

TEST(PackedMask, FindLastBeforeEdges) {
  // An empty mask has nothing below its one valid bound.
  EXPECT_EQ(PackedMask(0).find_last_before(0), -1);
  EXPECT_EQ(PackedMask(130).find_last_before(130), -1);
  // to = 0 never finds a bit; to = size() finds the last one.
  PackedMask mask(130);
  for (const int i : {0, 63, 64, 65}) mask.set(i, true);
  EXPECT_EQ(mask.find_last_before(0), -1);
  EXPECT_EQ(mask.find_last_before(130), 65);
  // Bits either side of the first word boundary: the scan is strict.
  EXPECT_EQ(mask.find_last_before(66), 65);
  EXPECT_EQ(mask.find_last_before(65), 64);
  EXPECT_EQ(mask.find_last_before(64), 63);
  EXPECT_EQ(mask.find_last_before(63), 0);
  EXPECT_EQ(mask.find_last_before(1), 0);
  // A set bit in the partial last word (130 = 2 words + a 2-bit tail).
  mask.set(129, true);
  EXPECT_EQ(mask.find_last_before(130), 129);
  EXPECT_EQ(mask.find_last_before(129), 65);
  mask.set(128, true);
  EXPECT_EQ(mask.find_last_before(129), 128);
}

TEST(PackedMask, ComplementIsHealthyMask) {
  Rng rng(404);
  for (const int n : kSizes) {
    const auto bits = random_bools(n, 0.25, rng);
    const PackedMask mask(bits);
    const PackedMask healthy = mask.complement();
    std::vector<bool> oracle(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      oracle[static_cast<std::size_t>(i)] =
          !bits[static_cast<std::size_t>(i)];
    expect_matches_oracle(healthy, oracle);
    EXPECT_EQ(mask.popcount() + healthy.popcount(), n);
    EXPECT_EQ(healthy.complement(), mask);
  }
}

TEST(PackedMask, ForEachSetBitEnumeratesAscending) {
  Rng rng(8080);
  for (const int n : kSizes) {
    const auto bits = random_bools(n, 0.2, rng);
    const PackedMask mask(bits);
    std::vector<int> seen;
    for_each_set_bit(mask, [&](int i) { seen.push_back(i); });
    std::vector<int> expected;
    for (int i = 0; i < n; ++i)
      if (bits[static_cast<std::size_t>(i)]) expected.push_back(i);
    EXPECT_EQ(seen, expected);
  }
}

TEST(PackedMask, EqualityIsValueEquality) {
  Rng rng(2020);
  const auto bits = random_bools(130, 0.5, rng);
  const PackedMask a(bits);
  PackedMask b(bits);
  EXPECT_EQ(a, b);
  b.flip(129);
  EXPECT_NE(a, b);
  b.flip(129);
  EXPECT_EQ(a, b);
  // Same prefix, different size: not equal.
  EXPECT_NE(a, PackedMask(130));
  EXPECT_NE(PackedMask(64), PackedMask(65));
}

}  // namespace
}  // namespace ihbd::fault
