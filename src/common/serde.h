// One common codec layer for every serialized artifact in the tree: the
// JSON emission used by the observability exports (metrics snapshots,
// Perfetto traces) and the write-only binary encoding that result types
// (topo::TraceWasteResult, ctrl::ControlPlaneResult, ctrl::SloHistogram)
// save to. Their saved bytes are what the result digests hash; nothing
// reads them back, so each type's field-coverage test pins that every
// field reaches the bytes.
//
// Binary encoding: little-endian fixed-width integers, IEEE doubles carried
// by bit pattern (NaN payloads, infinities and signed zeros included),
// arrays length-prefixed with u64 counts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/stats.h"

namespace ihbd::serde {

// --- JSON emission ----------------------------------------------------------

/// Append `s` as a quoted JSON string literal (escaping quotes, backslashes
/// and control characters).
void json_append_string(std::string& out, std::string_view s);

/// Append a JSON number. Finite doubles render with the shortest decimal
/// form that round-trips to the same bits (so snapshot -> JSON -> snapshot
/// is lossless); non-finite values render as null (JSON has no NaN/inf).
void json_append_number(std::string& out, double v);
void json_append_number(std::string& out, std::uint64_t v);

// --- binary codec -----------------------------------------------------------

/// Append-only binary encoder over an owned byte buffer.
class Writer {
 public:
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Bit-exact double: the IEEE bit pattern travels as a u64.
  void f64(double v);
  void f64_vec(const std::vector<double>& v);

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// --- shared domain codecs ---------------------------------------------------
// TimeSeries and Summary appear in every saved replay result (via
// topo::TraceWasteResult), so their encodings live here with the
// primitives rather than being restated by each consumer.

void write_time_series(Writer& w, const TimeSeries& ts);
void write_summary(Writer& w, const Summary& s);

}  // namespace ihbd::serde
