// Vendored micro-benchmark harness: a drop-in for the subset of the Google
// Benchmark API that the micro-benches use, so they build and run with no
// benchmark library installed. Every micro-bench target
// (bench_reconfig_latency, bench_replay_micro) includes it directly.
//
// Supported surface: benchmark::State (range-for iteration, range(i),
// counters), BENCHMARK(fn) registration with ->Arg(n), DoNotOptimize,
// Counter, and BENCHMARK_MAIN(). Timing is adaptive: each benchmark reruns
// with a growing iteration count until one run both occupies a minimum
// wall-clock window and has at least kMinIterations iterations, then
// reports that run's ns/iteration plus any user counters. The iteration
// floor keeps a tier of tens of milliseconds per iteration from being
// reported off a handful of cold iterations.
// The measurement window defaults to 0.05 s per benchmark and can be
// overridden with the IHBD_MICROBENCH_MIN_TIME environment variable
// (seconds; CI's quick mode uses a smaller window so the full registry
// stays cheap to run on every push).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace benchmark {

struct Counter {
  double value = 0.0;
  Counter() = default;
  Counter(double v) : value(v) {}  // NOLINT: implicit like the real API
};

class State {
 public:
  State(std::int64_t iterations, std::vector<std::int64_t> ranges)
      : iterations_(iterations), ranges_(std::move(ranges)) {}

  struct Ignored {
    Ignored() {}  // non-trivial: silences unused-variable on `auto _`
  };
  struct iterator {
    std::int64_t remaining;
    bool operator!=(const iterator& other) const {
      return remaining != other.remaining;
    }
    void operator++() { --remaining; }
    Ignored operator*() const { return {}; }
  };

  /// Starts the measured window; setup before the loop is excluded.
  iterator begin() {
    start_ = std::chrono::steady_clock::now();
    return {iterations_};
  }
  iterator end() { return {0}; }

  std::int64_t range(std::size_t i = 0) const { return ranges_.at(i); }
  std::int64_t iterations() const { return iterations_; }
  std::chrono::steady_clock::time_point start_time() const { return start_; }

  std::map<std::string, Counter> counters;

 private:
  std::int64_t iterations_;
  std::vector<std::int64_t> ranges_;
  std::chrono::steady_clock::time_point start_;
};

#if defined(__GNUC__) || defined(__clang__)
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}
#else
template <typename T>
inline void DoNotOptimize(T const& value) {
  volatile const T* sink = &value;
  (void)sink;
}
#endif

namespace detail {

struct Registered {
  std::string name;
  void (*fn)(State&);
  /// One run per arg set; an empty list means one run with no args.
  std::vector<std::vector<std::int64_t>> arg_sets;
};

inline std::vector<Registered>& registry() {
  static std::vector<Registered> benches;
  return benches;
}

/// Registration handle; mirrors the real API's chained ->Arg(n).
class Handle {
 public:
  explicit Handle(std::size_t index) : index_(index) {}
  Handle* Arg(std::int64_t a) {
    registry()[index_].arg_sets.push_back({a});
    return this;
  }

 private:
  std::size_t index_;
};

inline Handle* Register(const char* name, void (*fn)(State&)) {
  registry().push_back({name, fn, {}});
  // Handles live for the program (still reachable, so LeakSanitizer-clean)
  // behind stable pointers; they are only used for ->Arg chains.
  static std::vector<std::unique_ptr<Handle>> handles;
  handles.push_back(std::make_unique<Handle>(registry().size() - 1));
  return handles.back().get();
}

/// Minimum measured wall-clock per benchmark; IHBD_MICROBENCH_MIN_TIME
/// (seconds) overrides the 0.05 s default.
inline double min_seconds() {
  static const double cached = [] {
    if (const char* env = std::getenv("IHBD_MICROBENCH_MIN_TIME")) {
      char* end = nullptr;
      const double v = std::strtod(env, &end);
      if (end != env && v >= 0.0) return v;
    }
    return 0.05;
  }();
  return cached;
}

/// One finished benchmark run, for the human table and the JSON export.
struct RunResult {
  std::string name;  ///< registered name plus "/arg" suffixes
  double ns_per_iter = 0.0;
  std::int64_t iterations = 0;
  std::map<std::string, Counter> counters;
};

/// Fewest iterations a reported run may have, whatever its wall clock.
inline constexpr std::int64_t kMinIterations = 16;

inline RunResult run_one(const Registered& bench,
                         const std::vector<std::int64_t>& args) {
  using clock = std::chrono::steady_clock;
  const double kMinSeconds = min_seconds();
  constexpr std::int64_t kMaxIters = std::int64_t{1} << 30;

  RunResult result;
  double elapsed = 0.0;
  std::int64_t iters = 1;
  for (;; iters *= 4) {
    State state(iters, args);
    bench.fn(state);
    elapsed =
        std::chrono::duration<double>(clock::now() - state.start_time())
            .count();
    result.counters = state.counters;
    if ((elapsed >= kMinSeconds && iters >= kMinIterations) ||
        iters >= kMaxIters)
      break;
  }

  result.name = bench.name;
  for (const auto a : args) result.name += "/" + std::to_string(a);
  result.ns_per_iter = elapsed * 1e9 / static_cast<double>(iters);
  result.iterations = iters;

  std::string extra;
  for (const auto& [key, counter] : result.counters) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s=%.4g", key.c_str(), counter.value);
    extra += buf;
  }
  std::printf("%-36s %12.1f ns/iter %12lld iters%s\n", result.name.c_str(),
              result.ns_per_iter, static_cast<long long>(iters),
              extra.c_str());
  return result;
}

/// Serialize finished runs as a JSON array (names/keys contain no characters
/// needing escapes; the harness stays self-contained, so no JSON library).
inline std::string results_json(const std::vector<RunResult>& results) {
  std::string out = "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    if (i > 0) out += ',';
    char buf[128];
    // name is appended separately: it may exceed the fixed buffer.
    out += "{\"name\":\"";
    out += r.name;
    std::snprintf(buf, sizeof buf,
                  "\",\"ns_per_iter\":%.17g,\"iterations\":%lld,"
                  "\"counters\":{",
                  r.ns_per_iter, static_cast<long long>(r.iterations));
    out += buf;
    bool first = true;
    for (const auto& [key, counter] : r.counters) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += key;
      std::snprintf(buf, sizeof buf, "\":%.17g", counter.value);
      out += buf;
    }
    out += "}}";
  }
  out += "]";
  return out;
}

}  // namespace detail

/// Run every registered benchmark: the human table goes to stdout and, when
/// the IHBD_MICROBENCH_JSON environment variable names a file, the same
/// results are written there as a JSON array of
/// {"name","ns_per_iter","iterations","counters":{...}} objects.
inline int RunAllBenchmarks() {
  std::printf("%-36s %20s %18s\n", "Benchmark (vendored harness)", "Time",
              "Iterations");
  std::vector<detail::RunResult> results;
  for (const auto& bench : detail::registry()) {
    if (bench.arg_sets.empty()) {
      results.push_back(detail::run_one(bench, {}));
    } else {
      for (const auto& args : bench.arg_sets)
        results.push_back(detail::run_one(bench, args));
    }
  }
  if (const char* path = std::getenv("IHBD_MICROBENCH_JSON")) {
    if (std::FILE* f = std::fopen(path, "wb")) {
      const std::string json = detail::results_json(results);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::fprintf(stderr, "microbench results written to %s\n", path);
    } else {
      std::fprintf(stderr, "cannot write microbench results to '%s'\n", path);
    }
  }
  return 0;
}

}  // namespace benchmark

#define BENCHMARK(fn)                                    \
  static ::benchmark::detail::Handle* bench_handle_##fn = \
      ::benchmark::detail::Register(#fn, fn)

#define BENCHMARK_MAIN() \
  int main() { return ::benchmark::RunAllBenchmarks(); }
