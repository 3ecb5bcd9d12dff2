// Shared plumbing of the repository benchmark: clocks, the host-speed
// probe, the nearest-rank percentile helper, metric-name sanitising, a digest for simulated
// statistics, and the flat JSON writer the benchmark's report is built with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Host wall clock in seconds (steady).
double now_s();
/// User + system CPU seconds consumed by this process so far.
double cpu_s();
/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Host-speed probe: a fixed loop of dependent multiply-adds and random
/// reads over an 8 MiB table, `scale` times the reference length; returns
/// its host seconds. On a shared virtual machine the same code runs up to
/// 2-3x slower for seconds to minutes at a time, so the benchmark runs this
/// probe next to its timed work and reports timings at the reference host
/// speed (perfbench/README.md, "Host speed").
double probe_s(double scale = 1.0);
/// The mean host seconds of `threads` probes run at once on as many threads.
double probe_parallel_s(int threads, double scale = 1.0);
/// Host seconds of a reference-length probe at the reference host speed.
constexpr double kRefProbeS = 0.020;
/// Host speed relative to the reference, from probes of `probe_s` host
/// seconds and `scale` reference lengths in total; a host time times this
/// is the time at the reference speed.
inline double speed_of(double probe_s, double scale) {
  return kRefProbeS * scale / probe_s;
}

/// Nearest-rank percentile: the smallest sample such that at least
/// ceil(q * n) samples are <= it (0 < q <= 1). Throws on empty input.
double nearest_rank(std::vector<double> samples, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// A tail percentile is reportable only with at least ten samples beyond it.
inline bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

/// Map an arbitrary label (an architecture name) onto a metric-name
/// component: every run of invalid characters becomes one '_', and leading
/// or trailing '_' are dropped ("InfiniteHBD(K=2)" -> "InfiniteHBD_K_2").
std::string metric_component(std::string_view label);

/// FNV-1a over bytes, chainable through `h`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 1469598103934665603ull);
std::string hex64(std::uint64_t v);

/// Median and quartiles (nearest rank) of a sample set.
struct Dist {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
Dist dist_of(const std::vector<double>& samples);

/// Insertion-ordered flat JSON object. Doubles print with 17 significant
/// digits so every measured digit survives.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& count(const std::string& key, std::uint64_t v);
  Json& str(const std::string& key, const std::string& v);
  Json& flag(const std::string& key, bool v);
  Json& raw(const std::string& key, const std::string& json);
  Json& dist(const std::string& key, const Dist& d);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Run the helper self-test; prints one line per failed case to stderr and
/// returns the number of failures.
int run_selftest();

}  // namespace perfbench
