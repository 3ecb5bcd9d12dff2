// Scoped span tracing with Chrome trace-event / Perfetto JSON export.
//
//   obs::set_trace_enabled(true);
//   { IHBD_TRACE_SPAN("replay_trace"); ...work... }    // RAII begin/end
//   obs::write_trace_json("trace.json");               // open in Perfetto
//
// Spans record paired B/E (begin/end) events into per-thread buffers: the
// recording path takes the calling thread's own (uncontended) buffer mutex
// and a steady_clock read — no cross-thread traffic until export. Disabled
// (the default), IHBD_TRACE_SPAN costs one relaxed load + branch; with
// IHBD_OBS=0 it compiles away entirely.
//
// Span names must be string literals (or otherwise outlive the process):
// only the pointer is recorded. Nesting comes from scoping — inner spans
// close before outer ones, so every thread's event stream is balanced and
// its timestamps are monotonic (both CI-checked properties).
//
// The export is the Chrome trace-event "JSON object format":
// {"traceEvents":[{"name":...,"ph":"B"|"E","ts":<us>,"pid":0,"tid":N}]},
// loadable directly in https://ui.perfetto.dev or chrome://tracing.
#pragma once

#include <cstdint>
#include <string>

#include "src/obs/metrics.h"  // IHBD_OBS + the enabled-flag plumbing

namespace ihbd::obs {

/// Whether IHBD_TRACE_SPAN records anything. One relaxed load.
inline bool trace_enabled() {
#if IHBD_OBS
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Turn span recording on/off (off by default; no-op under IHBD_OBS=0).
void set_trace_enabled(bool on);

namespace detail {
void span_begin(const char* name);
void span_end(const char* name);
}  // namespace detail

/// RAII span: records B at construction (if tracing is enabled) and the
/// matching E at destruction. The E is emitted iff the B was, so streams
/// stay balanced even when tracing is toggled mid-span.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) {
    if (trace_enabled()) {
      name_ = name;
      detail::span_begin(name);
    }
  }
  ~SpanGuard() {
    if (name_ != nullptr) detail::span_end(name_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* name_ = nullptr;
};

/// Serialize every buffered event (all threads, per-thread order) as
/// Chrome trace-event JSON. Safe while spans are still being recorded,
/// but an in-flight span contributes only its B until it closes.
std::string trace_json();

/// trace_json() to a file; false (with a stderr note) if unwritable.
bool write_trace_json(const std::string& path);

/// Drop every buffered event (thread buffers stay registered).
void clear_trace();

/// Events discarded because a thread hit its buffer cap (bounded memory
/// beats silent unbounded growth; nonzero means the trace is truncated).
std::uint64_t trace_dropped();

}  // namespace ihbd::obs

#define IHBD_OBS_CONCAT2(a, b) a##b
#define IHBD_OBS_CONCAT(a, b) IHBD_OBS_CONCAT2(a, b)

#if IHBD_OBS
/// Scoped trace span; `name` must be a string literal.
#define IHBD_TRACE_SPAN(name) \
  ::ihbd::obs::SpanGuard IHBD_OBS_CONCAT(ihbd_trace_span_, __LINE__)(name)
#else
#define IHBD_TRACE_SPAN(name) static_cast<void>(0)
#endif
