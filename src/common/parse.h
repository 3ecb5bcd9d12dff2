// Strict command-line value parsers shared by the bench flags and the
// ihbd-sweepd driver. Each takes the whole text or nothing: leading or
// trailing junk, out-of-range values and non-finite numbers yield nullopt,
// and the caller reports the error in its own words, naming the flag.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>

namespace ihbd {

/// `text` as an int in [1, INT_MAX].
inline std::optional<int> parse_positive_int(std::string_view text) {
  int n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (text.empty() || ec != std::errc() || ptr != end || n <= 0)
    return std::nullopt;
  return n;
}

/// `text` as finite seconds: > 0, or >= 0 when `allow_zero`.
inline std::optional<double> parse_seconds(std::string_view text,
                                           bool allow_zero) {
  double s = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, s);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(s) ||
      s < 0.0 || (!allow_zero && s == 0.0))
    return std::nullopt;
  return s;
}

}  // namespace ihbd
