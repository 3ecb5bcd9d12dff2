#include "src/common/serde.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/error.h"

namespace ihbd::serde {

// --- JSON emission ----------------------------------------------------------

void json_append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void json_append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  // Shortest representation that round-trips: try increasing precision.
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

void json_append_number(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

// --- binary codec -----------------------------------------------------------

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Writer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Writer::f64_vec(const std::vector<double>& v) {
  u64(v.size());
  for (const double x : v) f64(x);
}

std::string_view Reader::take(std::size_t n, const char* what) {
  if (n > data_.size() - pos_) {
    throw ConfigError(std::string("serde: truncated input reading ") + what);
  }
  const std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::uint32_t Reader::u32() {
  const std::string_view b = take(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t Reader::u64() {
  const std::string_view b = take(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i]))
         << (8 * i);
  }
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::vector<double> Reader::f64_vec() {
  const std::uint64_t n = u64();
  if (n > remaining() / 8) {
    throw ConfigError("serde: array length exceeds remaining bytes");
  }
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(f64());
  return out;
}

void Reader::expect_done(std::string_view what) const {
  if (!done()) {
    throw ConfigError("serde: " + std::string(what) + ": " +
                      std::to_string(remaining()) + " trailing bytes");
  }
}

// --- shared domain codecs ---------------------------------------------------

void write_time_series(Writer& w, const TimeSeries& ts) {
  w.f64_vec(ts.t);
  w.f64_vec(ts.v);
}

TimeSeries read_time_series(Reader& r) {
  TimeSeries ts;
  ts.t = r.f64_vec();
  ts.v = r.f64_vec();
  if (ts.t.size() != ts.v.size()) {
    throw ConfigError("serde: TimeSeries t/v length mismatch");
  }
  return ts;
}

void write_summary(Writer& w, const Summary& s) {
  w.u64(s.count);
  w.f64(s.mean);
  w.f64(s.stddev);
  w.f64(s.min);
  w.f64(s.max);
  w.f64(s.p50);
  w.f64(s.p90);
  w.f64(s.p99);
}

Summary read_summary(Reader& r) {
  Summary s;
  s.count = static_cast<std::size_t>(r.u64());
  s.mean = r.f64();
  s.stddev = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  s.p50 = r.f64();
  s.p90 = r.f64();
  s.p99 = r.f64();
  return s;
}

}  // namespace ihbd::serde
