// Deterministic fault-injection plan for OCS session switches.
//
// The robustness story of the control plane ("with 10% of reconfigurations
// failing, every run still completes") needs failures that are (a) cheap,
// (b) independent of the RNG streams the rest of the run consumes — adding
// injection must not perturb switch-latency draws or the workload — and
// (c) reproducible across replays and thread counts.
//
// An InjectionPlan is therefore stateless: whether one drain attempt fails
// is a pure hash of (seed, node, attempt sequence number). The queue keeps
// the sequence counter; the plan never holds mutable state, so copies are
// free and the decision for attempt k never depends on how earlier
// attempts were batched.
#pragma once

#include <cstdint>

namespace ihbd::fault {

/// Decides which OCS session-switch attempts fail (transiently).
struct InjectionPlan {
  /// Probability that one apply attempt fails. 0 disables injection.
  double session_failure_rate = 0.0;
  std::uint64_t seed = 0;

  bool enabled() const { return session_failure_rate > 0.0; }

  /// True when the attempt identified by (node, sequence) should fail.
  /// Pure function of the plan and its arguments.
  bool should_fail(int node, std::uint64_t sequence) const {
    if (!enabled()) return false;
    // splitmix64 finalizer over a (seed, node, sequence) mix.
    std::uint64_t x = seed ^ (static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(node)) *
                              0x9e3779b97f4a7c15ull);
    x ^= sequence + 0x9e3779b97f4a7c15ull + (x << 6) + (x >> 2);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    const double u =
        static_cast<double>(x >> 11) * 0x1.0p-53;  // uniform in [0, 1)
    return u < session_failure_rate;
  }
};

}  // namespace ihbd::fault
