// Deterministic random number generation for reproducible experiments.
//
// All stochastic components of the library take an explicit Rng (or a seed)
// so that every table/figure regenerated by the bench harness is bit-stable
// across runs. The generator is xoshiro256**, seeded via splitmix64.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/contracts.h"

namespace ihbd {

/// xoshiro256** PRNG with distribution helpers. Not thread-safe; use one
/// instance per thread. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

  /// Next raw 64-bit value. Inline, like the two uniform() forms below:
  /// the control plane draws one switch latency per steered transceiver.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    IHBD_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
  }
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);
  /// Standard normal via Box-Muller.
  double normal();
  /// Normal with given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);
  /// Exponential with given rate lambda > 0 (mean 1/lambda).
  double exponential(double lambda);
  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Poisson-distributed count with mean lambda >= 0.
  std::uint64_t poisson(double lambda);

  /// Fisher-Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for parallel sub-experiments).
  Rng fork();

  /// The 256-bit internal state (for bit-stability tests).
  std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

 private:
  std::uint64_t s_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace ihbd
