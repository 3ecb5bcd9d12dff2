#include "src/obs/trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/serde.h"

namespace ihbd::obs {

using serde::json_append_number;
using serde::json_append_string;

namespace {

using Clock = std::chrono::steady_clock;

/// Hard cap per thread buffer (~24 MB of events at 24 B each): traces are
/// for bounded instrumented runs, and a runaway loop must not OOM the
/// process. Overflow is counted and surfaced via trace_dropped().
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 20;

struct TraceEvent {
  const char* name;
  std::uint64_t ts_ns;  ///< since the trace epoch
  char phase;           ///< 'B' or 'E'
};

struct ThreadTraceBuffer {
  std::mutex mu;
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

struct TraceRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  std::uint32_t next_tid = 0;
  Clock::time_point epoch = Clock::now();
};

TraceRegistry& registry() {
  static TraceRegistry r;
  return r;
}

ThreadTraceBuffer& local_buffer() {
  // shared_ptr: the registry (and so the export path) keeps the buffer
  // alive after the owning thread exits.
  thread_local const std::shared_ptr<ThreadTraceBuffer> buffer = [] {
    auto b = std::make_shared<ThreadTraceBuffer>();
    TraceRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    b->tid = reg.next_tid++;
    reg.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

void record(const char* name, char phase) {
  ThreadTraceBuffer& buf = local_buffer();
  const std::uint64_t ts_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           registry().epoch)
          .count());
  std::lock_guard<std::mutex> lock(buf.mu);  // uncontended except at export
  if (buf.events.size() >= kMaxEventsPerThread) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back(TraceEvent{name, ts_ns, phase});
}

}  // namespace

void set_trace_enabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

namespace detail {

void span_begin(const char* name) { record(name, 'B'); }
void span_end(const char* name) { record(name, 'E'); }

}  // namespace detail

std::string trace_json() {
  TraceRegistry& reg = registry();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    for (const TraceEvent& e : buf->events) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":";
      json_append_string(out, e.name);
      out += ",\"cat\":\"ihbd\",\"ph\":\"";
      out += e.phase;
      out += "\",\"ts\":";
      // Chrome trace-event timestamps are microseconds.
      json_append_number(out, static_cast<double>(e.ts_ns) / 1000.0);
      out += ",\"pid\":0,\"tid\":";
      json_append_number(out, static_cast<std::uint64_t>(buf->tid));
      out += '}';
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool write_trace_json(const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "obs: cannot write trace to '%s'\n", path.c_str());
    return false;
  }
  const std::string json = trace_json();
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  return file.good();
}

void clear_trace() {
  TraceRegistry& reg = registry();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    buf->events.clear();
    buf->dropped = 0;
  }
}

std::uint64_t trace_dropped() {
  TraceRegistry& reg = registry();
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    total += buf->dropped;
  }
  return total;
}

}  // namespace ihbd::obs
