#include "src/runtime/substream.h"

namespace ihbd::runtime {
namespace {

// splitmix64 finalizer: a bijective avalanche mix, the same construction
// Rng uses to expand a seed into state.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng substream(std::uint64_t seed, std::uint64_t i) {
  // Key-mix the stream index into the seed so that (seed, i) and
  // (seed, j != i) land in unrelated splitmix64 neighbourhoods, then let
  // the Rng constructor expand the combined key into xoshiro state.
  return Rng(mix64(seed ^ mix64(i * 0xA24BAED4963EE407ull)));
}

}  // namespace ihbd::runtime
