#include "src/common/serde.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

// --- shared domain codecs ---------------------------------------------------

void write_time_series(Writer& w, const TimeSeries& ts) {
  w.f64_vec(ts.t);
  w.f64_vec(ts.v);
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

}  // namespace ihbd::serde
