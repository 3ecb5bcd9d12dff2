// Strict command-line value parser for the bench flags (bench/bench_util.h).
// It takes the whole text or nothing: leading or trailing junk and
// out-of-range values yield nullopt, and the caller reports the error in
// its own words, naming the flag.
#pragma once

#include <charconv>
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

}  // namespace ihbd
