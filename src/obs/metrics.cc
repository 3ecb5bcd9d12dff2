#include "src/obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>

#include "src/common/serde.h"
#include "src/common/table.h"

namespace ihbd::obs {

using serde::json_append_number;
using serde::json_append_string;

namespace detail {

std::size_t thread_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

// --- Counter ----------------------------------------------------------------

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_)
    total += shard.value.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (Shard& shard : shards_)
    shard.value.store(0, std::memory_order_relaxed);
}

// --- Histogram --------------------------------------------------------------

double Histogram::bucket_upper_bound(std::size_t bucket) {
  if (bucket + 1 >= kHistogramBuckets)
    return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(bucket) - 32);
}

void Histogram::observe(double x) {
  if (!enabled()) return;
  const std::size_t bucket = bucket_of(x);
  if (bucket >= kHistogramBuckets) return;  // NaN: no bucket fits
  Shard& shard = shards_[detail::thread_index() % kMetricShards];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(x, std::memory_order_relaxed);
}

void Histogram::add(const std::array<std::uint64_t, kHistogramBuckets>& counts,
                    double sum) {
  if (!enabled()) return;
  Shard& shard = shards_[detail::thread_index() % kMetricShards];
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (counts[b] != 0)
      shard.counts[b].fetch_add(counts[b], std::memory_order_relaxed);
  }
  shard.sum.fetch_add(sum, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_)
    for (const auto& c : shard.counts)
      total += c.load(std::memory_order_relaxed);
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const Shard& shard : shards_)
    total += shard.sum.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::bucket_count(std::size_t bucket) const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_)
    total += shard.counts[bucket].load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() {
  for (Shard& shard : shards_) {
    for (auto& c : shard.counts) c.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

// --- registry ---------------------------------------------------------------

namespace {

struct Registry {
  std::mutex mu;
  // unique_ptr: handle addresses stay stable across rehash/insert.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// A metric name must keep one kind for the process lifetime; silently
/// returning a fresh object of another kind would fork the name.
void require_unique_kind(const Registry& reg, std::string_view name,
                         const void* self_map) {
  const bool clash =
      (&reg.counters != self_map && reg.counters.count(std::string(name))) ||
      (&reg.gauges != self_map && reg.gauges.count(std::string(name))) ||
      (&reg.histograms != self_map &&
       reg.histograms.count(std::string(name)));
  if (clash) {
    std::fprintf(stderr, "obs: metric '%.*s' re-registered as another kind\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
}

template <typename T, typename Map>
T& intern(Map& map, std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = map.find(name);
  if (it == map.end()) {
    require_unique_kind(reg, name, &map);
    it = map.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& counter(std::string_view name) {
  return intern<Counter>(registry().counters, name);
}

Gauge& gauge(std::string_view name) {
  return intern<Gauge>(registry().gauges, name);
}

Histogram& histogram(std::string_view name) {
  return intern<Histogram>(registry().histograms, name);
}

// --- snapshot ---------------------------------------------------------------

MetricsSnapshot snapshot() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  MetricsSnapshot snap;
  for (const auto& [name, c] : reg.counters) snap.counters[name] = c->value();
  for (const auto& [name, g] : reg.gauges) snap.gauges[name] = g->value();
  for (const auto& [name, h] : reg.histograms) {
    HistogramSnapshot hs;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      const std::uint64_t n = h->bucket_count(b);
      if (n > 0) hs.buckets.emplace_back(Histogram::bucket_upper_bound(b), n);
      hs.count += n;
    }
    hs.sum = h->sum();
    snap.histograms[name] = std::move(hs);
  }
  return snap;
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& [name, c] : reg.counters) c->reset();
  for (const auto& [name, g] : reg.gauges) g->reset();
  for (const auto& [name, h] : reg.histograms) h->reset();
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, name);
    out += ':';
    json_append_number(out, v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, name);
    out += ':';
    json_append_number(out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hs] : histograms) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, name);
    out += ":{\"count\":";
    json_append_number(out, hs.count);
    out += ",\"sum\":";
    json_append_number(out, hs.sum);
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < hs.buckets.size(); ++b) {
      if (b > 0) out += ',';
      out += '[';
      json_append_number(out, hs.buckets[b].first);
      out += ',';
      json_append_number(out, hs.buckets[b].second);
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

Table MetricsSnapshot::to_table() const {
  Table table("Metrics snapshot");
  table.set_header({"Metric", "Kind", "Value"});
  char buf[64];
  for (const auto& [name, v] : counters) {
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    table.add_row({name, "counter", buf});
  }
  for (const auto& [name, v] : gauges) {
    std::snprintf(buf, sizeof buf, "%.6g", v);
    table.add_row({name, "gauge", buf});
  }
  for (const auto& [name, hs] : histograms) {
    std::snprintf(buf, sizeof buf, "count=%llu mean=%.6g",
                  static_cast<unsigned long long>(hs.count), hs.mean());
    table.add_row({name, "histogram", buf});
  }
  return table;
}

}  // namespace ihbd::obs
