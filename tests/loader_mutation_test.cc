// Seeded mutation test of the trace CSV loader (src/fault/trace_io.h), the
// one loader that reads input from outside the program (the paper's
// open-sourced production trace ships in this shape). Starting from the
// save_trace_csv bytes of a small generated trace, every input made by a
// few byte flips, inserts, deletes and a truncation must either load into a
// well-formed trace or throw ConfigError; any other exception fails, and a
// crash or an undefined operation fails under the sanitizer builds.
#include <gtest/gtest.h>

#include <climits>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <sstream>
#include <string>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/fault/generator.h"
#include "src/fault/trace_io.h"

namespace ihbd::fault {
namespace {

constexpr int kNodes = 16;
constexpr double kDays = 30.0;

std::string valid_csv() {
  TraceGenConfig cfg;
  cfg.node_count = kNodes;
  cfg.duration_days = kDays;
  std::ostringstream out;
  save_trace_csv(generate_trace(cfg), out);
  return out.str();
}

/// Bytes a mutation inserts or writes: mostly CSV syntax, so mutants reach
/// the field parsers and row checks, and sometimes any byte at all.
char random_byte(Rng& rng) {
  static constexpr char kCsv[] = "0123456789.,-+eE\n# x";
  if (rng.bernoulli(0.25)) return static_cast<char>(rng.uniform_index(256));
  return kCsv[rng.uniform_index(sizeof kCsv - 1)];
}

/// `csv` with 1-4 byte edits (flip a bit, overwrite, insert, delete), then
/// truncated at a random offset one time in eight.
std::string mutate(std::string csv, Rng& rng) {
  const auto edits = 1 + rng.uniform_index(4);
  for (std::uint64_t i = 0; i < edits; ++i) {
    const auto at = static_cast<std::size_t>(rng.uniform_index(csv.size() + 1));
    switch (rng.uniform_index(4)) {
      case 0:
        if (at < csv.size())
          csv[at] = static_cast<char>(csv[at] ^ (1 << rng.uniform_index(8)));
        break;
      case 1:
        if (at < csv.size()) csv[at] = random_byte(rng);
        break;
      case 2:
        csv.insert(csv.begin() + static_cast<std::ptrdiff_t>(at),
                   random_byte(rng));
        break;
      default:
        if (at < csv.size()) csv.erase(at, 1);
    }
  }
  if (rng.bernoulli(0.125))
    csv.resize(static_cast<std::size_t>(rng.uniform_index(csv.size() + 1)));
  return csv;
}

/// Loads `csv` with the given dimensions (<= 0: inferred). A loaded trace
/// must hold every event inside its dimensions; ConfigError is the only
/// other allowed outcome. Returns whether it loaded.
bool loads_or_throws_config_error(const std::string& csv, int node_count,
                                  double duration_days) {
  std::istringstream in(csv);
  try {
    const FaultTrace trace = load_trace_csv(in, node_count, duration_days);
    EXPECT_GT(trace.node_count(), 0);
    for (const FaultEvent& e : trace.events()) {
      EXPECT_GE(e.node, 0);
      EXPECT_LT(e.node, trace.node_count());
      EXPECT_LE(e.start_day, e.end_day);
      EXPECT_LE(e.end_day, trace.duration_days());
    }
    return true;
  } catch (const ConfigError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-ConfigError exception: " << e.what();
  } catch (...) {
    ADD_FAILURE() << "non-standard exception";
  }
  return false;
}

TEST(TraceCsvMutation, EveryMutantLoadsOrThrowsConfigError) {
  const std::string valid = valid_csv();
  ASSERT_TRUE(loads_or_throws_config_error(valid, 0, 0.0));
  ASSERT_TRUE(loads_or_throws_config_error(valid, kNodes, kDays));
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    Rng rng(seed);
    int loaded = 0;
    int rejected = 0;
    for (int i = 0; i < 1000; ++i) {
      const std::string csv = mutate(valid, rng);
      SCOPED_TRACE("seed " + std::to_string(seed) + " mutant " +
                   std::to_string(i) + ":\n" + csv);
      for (const bool explicit_dims : {false, true}) {
        const bool ok = explicit_dims
                            ? loads_or_throws_config_error(csv, kNodes, kDays)
                            : loads_or_throws_config_error(csv, 0, 0.0);
        if (ok)
          ++loaded;
        else
          ++rejected;
      }
      if (HasFailure()) return;  // one reported mutant is enough
    }
    // The mix reaches both outcomes, so neither path goes untested.
    EXPECT_GT(loaded, 0) << "seed " << seed;
    EXPECT_GT(rejected, 0) << "seed " << seed;
  }
}

TEST(TraceCsvMutation, IntMaxNodeIdThrowsConfigErrorNamingTheLine) {
  // An inferred node_count is max id + 1, which overflows at INT_MAX.
  const std::string row = std::to_string(INT_MAX) + ",1,2";
  std::istringstream inferred("0,0.5,1\n" + row + "\n");
  try {
    load_trace_csv(inferred);
    ADD_FAILURE() << "no ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(row), std::string::npos) << e.what();
  }
  std::istringstream explicit_dims(row + "\n");
  EXPECT_THROW(load_trace_csv(explicit_dims, kNodes, kDays), ConfigError);
  // One below still infers a node_count that fits.
  std::istringstream largest(std::to_string(INT_MAX - 1) + ",1,2\n");
  EXPECT_EQ(load_trace_csv(largest).node_count(), INT_MAX);
}

}  // namespace
}  // namespace ihbd::fault
