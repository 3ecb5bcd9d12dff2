// Deterministic RNG substreams for parallel Monte-Carlo experiments.
//
// substream(seed, i) is an O(1), order-independent derivation of the i-th
// stream from a master seed via splitmix64 key mixing. Any worker can
// materialize any stream at any time, so sweep results are bit-stable
// regardless of thread count or execution order. This is what the sweep
// engine uses.
#pragma once

#include <cstdint>

#include "src/common/rng.h"

namespace ihbd::runtime {

/// The i-th independent stream of a master seed. Bit-stable in (seed, i)
/// and safe to call concurrently from any thread.
Rng substream(std::uint64_t seed, std::uint64_t i);

}  // namespace ihbd::runtime
