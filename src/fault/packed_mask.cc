#include "src/fault/packed_mask.h"

namespace ihbd::fault {

PackedMask::PackedMask(const std::vector<bool>& bits)
    : PackedMask(static_cast<int>(bits.size())) {
  for (int i = 0; i < bits_; ++i)
    if (bits[static_cast<std::size_t>(i)]) set(i, true);
}

int PackedMask::popcount_range(int begin, int end) const {
  IHBD_EXPECTS(begin >= 0 && begin <= end && end <= bits_);
  if (begin == end) return 0;
  const int wb = begin / kWordBits;
  const int we = (end - 1) / kWordBits;  // last word with a counted bit
  const std::uint64_t lo = ~std::uint64_t{0} << (begin % kWordBits);
  const std::uint64_t hi =
      ~std::uint64_t{0} >> (kWordBits - 1 - (end - 1) % kWordBits);
  if (wb == we)
    return std::popcount(words_[static_cast<std::size_t>(wb)] & lo & hi);
  int n = std::popcount(words_[static_cast<std::size_t>(wb)] & lo) +
          std::popcount(words_[static_cast<std::size_t>(we)] & hi);
  for (int w = wb + 1; w < we; ++w)
    n += std::popcount(words_[static_cast<std::size_t>(w)]);
  return n;
}

int PackedMask::find_first_from(int from) const {
  IHBD_EXPECTS(from >= 0 && from <= bits_);
  if (from == bits_) return -1;
  int w = from / kWordBits;
  std::uint64_t bits = words_[static_cast<std::size_t>(w)] &
                       (~std::uint64_t{0} << (from % kWordBits));
  while (bits == 0) {
    if (++w == word_count()) return -1;
    bits = words_[static_cast<std::size_t>(w)];
  }
  return w * kWordBits + std::countr_zero(bits);
}

PackedMask PackedMask::complement() const {
  PackedMask out(bits_);
  for (int w = 0; w < word_count(); ++w)
    out.words_[static_cast<std::size_t>(w)] =
        ~words_[static_cast<std::size_t>(w)] & valid_mask(w);
  return out;
}

}  // namespace ihbd::fault
