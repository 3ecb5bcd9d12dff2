#include "src/runtime/shard.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/error.h"
#include "src/runtime/accumulate.h"

namespace ihbd::runtime::shard {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, sizeof v); }

void fnv_str(std::uint64_t& h, std::string_view s) {
  fnv_u64(h, s.size());
  fnv_bytes(h, s.data(), s.size());
}

void fnv_f64(std::uint64_t& h, double v) {
  // Hash the bit pattern: NaN labels on categorical axes hash stably, and
  // +0.0 / -0.0 are distinct specs on purpose (they are distinct inputs).
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  fnv_u64(h, bits);
}

std::atomic<ShardContext*> g_context{nullptr};

}  // namespace

std::uint64_t spec_fingerprint(const SweepSpec& spec) {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, spec.seed);
  fnv_u64(h, static_cast<std::uint64_t>(spec.trials));
  fnv_u64(h, spec.keep_samples ? 1 : 0);
  fnv_u64(h, spec.fingerprint_salt);
  fnv_u64(h, spec.axes.size());
  for (const Axis& axis : spec.axes) {
    fnv_str(h, axis.name);
    fnv_u64(h, axis.labels.size());
    for (const std::string& label : axis.labels) fnv_str(h, label);
    for (const double v : axis.values) fnv_f64(h, v);
  }
  return h;
}

ShardPlan plan_shards(const SweepSpec& spec, const PlanPolicy& policy) {
  detail::validate_spec(spec);
  if (policy.max_shards == 0) {
    throw ConfigError("plan_shards: max_shards must be >= 1");
  }
  ShardPlan plan;
  plan.spec_hash = spec_fingerprint(spec);
  std::uint64_t ph = plan.spec_hash;
  fnv_u64(ph, policy.max_shards);
  plan.plan_hash = ph;
  plan.cell_count = spec.cell_count();
  plan.trials = spec.trials;

  // Contiguous ranges balanced to within one cell (the first `cells % n`
  // shards take one extra).
  const std::size_t cells = plan.cell_count;
  const std::size_t n = std::min(policy.max_shards, cells);
  const std::size_t base = cells / n;
  const std::size_t extra = cells % n;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ShardSpec s;
    s.index = i;
    s.cell_begin = begin;
    s.cell_end = begin + base + (i < extra ? 1 : 0);
    s.id = plan.plan_hash;
    fnv_u64(s.id, i);
    begin = s.cell_end;
    plan.shards.push_back(s);
  }
  return plan;
}

std::string shard_id_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

const ShardCodec<Accumulator>& accumulator_codec() {
  static const ShardCodec<Accumulator> codec{
      [](serde::Writer& w, const Accumulator& acc) { acc.save(w); },
      [](serde::Reader& r) { return Accumulator::load(r); },
  };
  return codec;
}

std::string encode_shard_payload(const ShardPayload& payload) {
  serde::Writer w;
  w.u64(payload.plan_hash);
  w.u64(payload.shard_id);
  w.u64(payload.shard_index);
  w.u64(payload.entries.size());
  for (const ShardPayloadEntry& e : payload.entries) {
    w.u64(e.cell);
    w.str(e.acc_bytes);
  }
  w.str(payload.metrics);
  return w.take();
}

ShardPayload decode_shard_payload(std::string_view bytes) {
  serde::Reader r(bytes);
  ShardPayload payload;
  payload.plan_hash = r.u64();
  payload.shard_id = r.u64();
  payload.shard_index = static_cast<std::size_t>(r.u64());
  const std::uint64_t n = r.u64();
  payload.entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ShardPayloadEntry e;
    e.cell = static_cast<std::size_t>(r.u64());
    e.acc_bytes = r.str();
    payload.entries.push_back(std::move(e));
  }
  payload.metrics = r.str();
  r.expect_done("shard payload");
  return payload;
}

ShardContext* context() { return g_context.load(std::memory_order_acquire); }

void set_context(ShardContext* ctx) {
  g_context.store(ctx, std::memory_order_release);
}

}  // namespace ihbd::runtime::shard
