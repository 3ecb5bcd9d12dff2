// One common codec layer for every serialized artifact in the tree: the
// JSON emission used by the observability exports (metrics snapshots,
// Perfetto traces) and the binary encoding that result types
// (topo::TraceWasteResult, ctrl::ControlPlaneResult, ctrl::SloHistogram)
// save to and load from. Their saved bytes are what the golden result
// digests hash, so a round trip restores every digested field.
//
// Binary encoding: little-endian fixed-width integers, IEEE doubles carried
// by bit pattern (save -> load is bit-exact, including NaN payloads and
// infinities), arrays length-prefixed with u64 counts. A
// Reader throws ConfigError on any underflow or malformed length, so a
// truncated buffer can never silently decode into a short value.
#pragma once

#include <cstddef>
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

/// Sequential binary decoder over a borrowed byte range. Every accessor
/// throws ConfigError on underflow; decode helpers validate length prefixes
/// against the remaining bytes before allocating.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::vector<double> f64_vec();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  /// Throws ConfigError unless every byte has been consumed — catches a
  /// payload longer than the decoder expects (version skew, corruption).
  void expect_done(std::string_view what) const;

 private:
  std::string_view take(std::size_t n, const char* what);

  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- shared domain codecs ---------------------------------------------------
// TimeSeries and Summary appear in every saved replay result (via
// topo::TraceWasteResult), so their encodings live here with the
// primitives rather than being restated by each consumer.

void write_time_series(Writer& w, const TimeSeries& ts);
TimeSeries read_time_series(Reader& r);

void write_summary(Writer& w, const Summary& s);
Summary read_summary(Reader& r);

}  // namespace ihbd::serde
