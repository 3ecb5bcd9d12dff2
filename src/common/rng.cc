#include "src/common/rng.h"

#include <cmath>

#include "src/common/contracts.h"

namespace ihbd {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  IHBD_EXPECTS(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v;
  do {
    v = next();
  } while (v >= limit);
  return v % n;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  IHBD_EXPECTS(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

bool Rng::bernoulli(double p) {
  IHBD_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

double Rng::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u1, u2;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  have_spare_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) {
  IHBD_EXPECTS(sigma >= 0.0);
  return mean + sigma * normal();
}

double Rng::exponential(double lambda) {
  IHBD_EXPECTS(lambda > 0.0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::poisson(double lambda) {
  IHBD_EXPECTS(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth's method for small means.
    const double threshold = std::exp(-lambda);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > threshold);
    return k - 1;
  }
  // Normal approximation for large means, clamped at zero.
  const double v = normal(lambda, std::sqrt(lambda));
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

Rng Rng::fork() { return Rng(next() ^ 0xD1B54A32D192ED03ull); }

namespace {

// Shared jump kernel: advances the state by the subsequence the given
// polynomial encodes (Blackman & Vigna's reference implementation).
void apply_jump(Rng& rng, std::uint64_t (&s)[4],
                const std::uint64_t (&poly)[4]) {
  std::uint64_t t[4] = {0, 0, 0, 0};
  for (const std::uint64_t word : poly) {
    for (int b = 0; b < 64; ++b) {
      if (word & (1ull << b)) {
        t[0] ^= s[0];
        t[1] ^= s[1];
        t[2] ^= s[2];
        t[3] ^= s[3];
      }
      rng.next();  // advances s in lockstep
    }
  }
  s[0] = t[0];
  s[1] = t[1];
  s[2] = t[2];
  s[3] = t[3];
}

}  // namespace

void Rng::jump() {
  static constexpr std::uint64_t kJump[4] = {
      0x180EC6D33CFD0ABAull, 0xD5A61266F0C9392Cull, 0xA9582618E03FC9AAull,
      0x39ABDC4529B1661Cull};
  apply_jump(*this, s_, kJump);
  have_spare_normal_ = false;  // the cached Box-Muller spare is stream state
}

void Rng::long_jump() {
  static constexpr std::uint64_t kLongJump[4] = {
      0x76E15D3EFEFDCBBFull, 0xC5004E441C522FB3ull, 0x77710069854EE241ull,
      0x39109BB02ACBE635ull};
  apply_jump(*this, s_, kLongJump);
  have_spare_normal_ = false;
}

}  // namespace ihbd
