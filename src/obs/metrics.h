// Low-overhead runtime metrics for the scheduler / sweep / replay stack.
//
// Design goals, in priority order:
//   1. NEVER perturb results. Instrumented code records wall time and event
//      counts only; every bench table/CSV is byte-identical with metrics on
//      or off (CI diffs them).
//   2. Near-zero cost when disabled (the default): every handle operation
//      starts with one relaxed atomic load + branch, nothing else. Defining
//      IHBD_OBS=0 at compile time folds even that branch away.
//   3. Lock-free and TSan-clean on the hot path when enabled: handles write
//      cache-line-padded per-thread-sharded atomic slots (threads hash to a
//      shard by a dense thread index); scraping merges the shards.
//
// Handles:
//   * Counter   — monotonically increasing uint64 (events, nanoseconds).
//   * Gauge     — last-written double (queue depth, epoch).
//   * Histogram — base-2 exponential buckets over positive doubles, plus
//                 sum and count. One universal bucket layout (2^-32..2^31)
//                 keeps every histogram mergeable with every snapshot.
//
// Handles are interned by name in a process-wide registry:
//
//   obs::Counter& flips = obs::counter("replay.flips_applied");
//   flips.add(n);                       // no-op unless obs::set_enabled(true)
//
// The registry lookup takes a mutex — resolve handles once (constructor,
// static) and keep the reference; references stay valid for the process
// lifetime. Names are shared across instances (two ThreadPools both bump
// "pool.tasks_executed"): metrics are fleet aggregates, not per-object.
//
// obs::snapshot() merges all shards into a MetricsSnapshot — a plain value
// type that itself merges associatively (counters/histograms add, gauges
// right-win), serializes to JSON, and is the intended wire format for
// shard state in future distributed sweeps (ROADMAP).
#pragma once

#ifndef IHBD_OBS
#define IHBD_OBS 1  ///< 0 compiles all instrumentation down to no-ops
#endif

#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ihbd {
class Table;
}  // namespace ihbd

namespace ihbd::serde {
class Writer;
class Reader;
}  // namespace ihbd::serde

namespace ihbd::obs {

namespace detail {
#if IHBD_OBS
inline std::atomic<bool> g_metrics_enabled{false};
inline std::atomic<bool> g_trace_enabled{false};
#endif
/// Small dense index of the calling thread (assigned on first use); used to
/// pick a metric shard. Distinct from std::thread::id: consecutive values
/// spread the pool's workers across distinct shards.
std::size_t thread_index();
}  // namespace detail

/// Whether metric handles record anything. One relaxed load — callers on
/// hot paths may also cache the result across a batch of updates.
inline bool enabled() {
#if IHBD_OBS
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Turn metric recording on/off (off by default; no-op under IHBD_OBS=0).
/// Toggling does not clear recorded values — see reset().
void set_enabled(bool on);

inline constexpr std::size_t kMetricShards = 16;
inline constexpr std::size_t kHistogramBuckets = 64;

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    shards_[detail::thread_index() % kMetricShards].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Sum over shards (relaxed; exact once writers are quiescent).
  std::uint64_t value() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  Shard shards_[kMetricShards];
};

/// Last-written value (queue depths, epochs). Concurrent writers race
/// benignly: some write wins, which is all a sampled gauge promises.
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Exponential histogram: bucket b holds observations in
/// (2^(b-33), 2^(b-32)] for b in [1, 63); bucket 0 holds non-positive and
/// tiny values (-inf included), bucket 63 everything above 2^30 (+inf
/// included). NaN observations are dropped (they fit no bucket and would
/// poison the sum).
class Histogram {
 public:
  void observe(double x);
  /// Fold in a whole histogram of this layout: add counts[b] to bucket b
  /// and `sum` to the sum, as one shard write per non-empty bucket. For
  /// callers that keep their own local histogram (ctrl::SloHistogram) and
  /// publish it once instead of observing each value here too. A no-op
  /// while disabled.
  void add(const std::array<std::uint64_t, kHistogramBuckets>& counts,
           double sum);
  std::uint64_t count() const;
  double sum() const;  ///< relaxed shard adds: FP order is unspecified
  /// Count in one bucket, summed over shards.
  std::uint64_t bucket_count(std::size_t bucket) const;
  void reset();

  /// Bucket of `x`, or kHistogramBuckets (a sentinel) for NaN. Inline:
  /// ctrl::SloHistogram buckets one latency per drained request.
  static std::size_t bucket_of(double x) {
    if (std::isnan(x)) return kHistogramBuckets;  // sentinel: dropped
    if (x <= 0.0) return 0;
    // frexp leaves the exponent unspecified for infinities (glibc: 0,
    // which would put +inf in the (0.5, 1] bucket).
    if (std::isinf(x)) return kHistogramBuckets - 1;
    int exp = 0;
    const double m = std::frexp(x, &exp);  // x = m * 2^exp, m in [0.5, 1)
    // frexp's range is lower-inclusive, the documented buckets
    // (2^(b-33), 2^(b-32)] are upper-inclusive: exact powers of two
    // (m == 0.5) belong to the bucket below. Bucket b then covers
    // (2^(b-33), 2^(b-32)] exactly.
    if (m == 0.5) --exp;
    const int b = exp + 32;
    if (b < 1) return 0;
    if (b >= static_cast<int>(kHistogramBuckets))
      return kHistogramBuckets - 1;
    return static_cast<std::size_t>(b);
  }
  /// Inclusive upper bound of a bucket (+inf for the last).
  static double bucket_upper_bound(std::size_t bucket);

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> counts[kHistogramBuckets];
    std::atomic<double> sum{0.0};
  };
  Shard shards_[kMetricShards];
};

/// Intern a handle by name (create on first use). Thread-safe; the
/// reference is valid for the process lifetime. A name must keep one kind:
/// re-requesting it as a different kind aborts.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Merged view of one histogram: total count/sum plus the non-empty
/// buckets as (inclusive upper bound, count), ascending.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<std::pair<double, std::uint64_t>> buckets;

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// Point-in-time merged view of every registered metric. A plain value:
/// serializable, mergeable, comparable. merge() is associative — counters
/// and histogram buckets add, gauges take the right (later) operand — so
/// partial snapshots from many shards/processes can be tree-reduced in any
/// grouping as long as their order is preserved (the planned wire format
/// for distributed-sweep shard state).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Fold `later` into this snapshot (this = this ⊕ later).
  void merge(const MetricsSnapshot& later);

  /// {"counters":{...},"gauges":{...},"histograms":{name:{"count":..,
  /// "sum":..,"buckets":[[le,n],...]}}} — keys sorted (std::map order).
  std::string to_json() const;

  /// Binary codec (serde): the wire format for distributed-sweep shard
  /// state — checkpoints carry a snapshot so counters survive a worker
  /// kill, and sweepd workers publish per-owner snapshots that the
  /// coordinator merge()s into one fleet metrics.json. save -> load is
  /// exact (doubles travel by bit pattern).
  void save(serde::Writer& w) const;
  static MetricsSnapshot load(serde::Reader& r);

  /// Human-readable table (one row per metric) for --metrics output.
  Table to_table() const;
};

/// Scrape every registered metric (merging shards). Safe while writers run:
/// values are relaxed-atomic reads, exact once writers are quiescent.
MetricsSnapshot snapshot();

/// Zero every registered metric (tests / repeated bench sections).
void reset();

}  // namespace ihbd::obs
