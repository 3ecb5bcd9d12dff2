#include "perfbench/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// Keeps the probe loop from being elided; atomic because probes run at once
// on several threads.
std::atomic<std::uint64_t> probe_sink{0};

double probe_s(double scale) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(std::size_t{1} << 21);  // 8 MiB
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = static_cast<std::uint32_t>(i * 2654435761u);
    return t;
  }();
  const auto iters = static_cast<std::uint64_t>(scale * 6e6);
  const double a = now_s();
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    sum += table[(x >> 20) & (table.size() - 1)];
  }
  probe_sink.store(sum, std::memory_order_relaxed);
  return now_s() - a;
}

double probe_parallel_s(int threads, double scale) {
  std::vector<double> secs(static_cast<std::size_t>(threads));
  {
    std::vector<std::jthread> others;  // joined on every way out
    for (int t = 1; t < threads; ++t)
      others.emplace_back([&secs, t, scale] { secs[t] = probe_s(scale); });
    secs[0] = probe_s(scale);
  }
  double sum = 0.0;
  for (const double s : secs) sum += s;
  return sum / static_cast<double>(threads);
}

namespace {

std::size_t rank_of(std::size_t n, double q) {
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("q not in (0, 1]");
  const auto r =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("no samples");
  const std::size_t r = rank_of(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (r - 1), samples.end());
  return samples[r - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

std::string metric_component(std::string_view label) {
  std::string out;
  for (const char c : label) {
    if (name_char(c)) {
      out += c;
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Dist dist_of(const std::vector<double>& samples) {
  if (samples.empty()) return {};
  return {nearest_rank(samples, 0.5), nearest_rank(samples, 0.25),
          nearest_rank(samples, 0.75), samples.size()};
}

Json& Json::num(const std::string& key, double v) {
  char buf[32];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  } else {
    std::snprintf(buf, sizeof buf, "null");
  }
  return raw(key, buf);
}

Json& Json::count(const std::string& key, std::uint64_t v) {
  return raw(key, std::to_string(v));
}

Json& Json::str(const std::string& key, const std::string& v) {
  return raw(key, quoted(v));
}

Json& Json::flag(const std::string& key, bool v) {
  return raw(key, v ? "true" : "false");
}

Json& Json::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

Json& Json::dist(const std::string& key, const Dist& d) {
  return raw(key, Json()
                      .num("median", d.median)
                      .num("q1", d.q1)
                      .num("q3", d.q3)
                      .count("n", d.n)
                      .dump());
}

std::string Json::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += quoted(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

int run_selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "selftest FAILED: " << what << "\n";
      ++failures;
    }
  };

  // Nearest rank: the ceil(q * n)-th smallest sample, never interpolated.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  expect(nearest_rank(hundred, 0.50) == 50.0, "p50 of 1..100 is 50");
  expect(nearest_rank(hundred, 0.90) == 90.0, "p90 of 1..100 is 90");
  expect(nearest_rank(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(nearest_rank(hundred, 1.00) == 100.0, "p100 of 1..100 is 100");
  expect(nearest_rank({7.0}, 0.5) == 7.0, "single sample");
  expect(nearest_rank({1.0, 2.0, 3.0, 4.0}, 0.5) == 2.0,
         "even count takes the lower middle, no interpolation");
  expect(nearest_rank({1.0, 2.0, 3.0, 4.0}, 0.75) == 3.0, "q3 of 1..4 is 3");
  expect(nearest_rank({5.0, 1.0, 3.0}, 0.01) == 1.0, "tiny q is the minimum");
  bool threw = false;
  try {
    nearest_rank({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "empty input throws");

  // Tail rule: >= 10 samples strictly beyond the reported percentile.
  expect(samples_beyond(100, 0.90) == 10, "p90 of 100 has 10 beyond");
  expect(tail_supported(100, 0.90), "p90 reportable at n = 100");
  expect(!tail_supported(99, 0.90), "p90 not reportable at n = 99");
  expect(!tail_supported(999, 0.99), "p99 not reportable at n = 999");
  expect(tail_supported(1000, 0.99), "p99 reportable at n = 1000");
  expect(!tail_supported(0, 0.5), "no samples, no percentile");

  // Architecture labels become metric-name components.
  expect(metric_component("InfiniteHBD(K=2)") == "InfiniteHBD_K_2",
         "arch label sanitised");
  expect(metric_component("NVL-576") == "NVL-576", "valid label unchanged");
  return failures;
}

}  // namespace perfbench
