#include <gtest/gtest.h>

#include <sstream>

#include "src/common/error.h"
#include "src/fault/generator.h"
#include "src/fault/trace_io.h"

namespace ihbd::fault {
namespace {

TEST(TraceIo, RoundTripPreservesEverything) {
  TraceGenConfig cfg;
  cfg.node_count = 40;
  cfg.duration_days = 30.0;
  const auto original = generate_trace(cfg);

  std::stringstream buffer;
  save_trace_csv(original, buffer);
  const auto loaded =
      load_trace_csv(buffer, original.node_count(), original.duration_days());

  ASSERT_EQ(loaded.events().size(), original.events().size());
  EXPECT_EQ(loaded.node_count(), original.node_count());
  EXPECT_DOUBLE_EQ(loaded.duration_days(), original.duration_days());
  for (std::size_t i = 0; i < loaded.events().size(); ++i) {
    EXPECT_EQ(loaded.events()[i].node, original.events()[i].node);
    EXPECT_NEAR(loaded.events()[i].start_day, original.events()[i].start_day,
                1e-9);
    EXPECT_NEAR(loaded.events()[i].end_day, original.events()[i].end_day,
                1e-9);
  }
}

TEST(TraceIo, InfersDimensions) {
  std::stringstream in("node,start_day,end_day\n3,1.0,2.0\n7,4.5,6.25\n");
  const auto trace = load_trace_csv(in);
  EXPECT_EQ(trace.node_count(), 8);
  EXPECT_DOUBLE_EQ(trace.duration_days(), 6.25);
  EXPECT_TRUE(trace.faulty_at(1.5).test(3));
}

TEST(TraceIo, SkipsCommentsAndHeader) {
  std::stringstream in(
      "# produced by test\nnode,start_day,end_day\n# mid comment\n0,0.5,1\n");
  const auto trace = load_trace_csv(in, 4, 10.0);
  EXPECT_EQ(trace.events().size(), 1u);
}

TEST(TraceIo, ThrowsOnMalformedRow) {
  std::stringstream in("0,1.0\n");  // missing end_day
  EXPECT_THROW(load_trace_csv(in, 4, 10.0), ConfigError);
  std::stringstream bad("zero,1.0,2.0\n");
  EXPECT_THROW(load_trace_csv(bad, 4, 10.0), ConfigError);
}

TEST(TraceIo, RejectsPartialAndNonFiniteFields) {
  // Trailing junk after a numeric field is an error, not a truncation.
  std::stringstream junk_node("12abc,1.0,2.0\n");
  EXPECT_THROW(load_trace_csv(junk_node, 40, 10.0), ConfigError);
  std::stringstream junk_day("1,1.0x,2.0\n");
  EXPECT_THROW(load_trace_csv(junk_day, 40, 10.0), ConfigError);
  std::stringstream extra_col("1,1.0,2.0,extra\n");
  EXPECT_THROW(load_trace_csv(extra_col, 40, 10.0), ConfigError);
  std::stringstream nan_day("1,nan,2.0\n");
  EXPECT_THROW(load_trace_csv(nan_day, 40, 10.0), ConfigError);
  std::stringstream inf_day("1,1.0,inf\n");
  EXPECT_THROW(load_trace_csv(inf_day, 40, 10.0), ConfigError);
}

TEST(TraceIo, RejectsOutOfRangeEvents) {
  std::stringstream neg_node("-1,1.0,2.0\n");
  EXPECT_THROW(load_trace_csv(neg_node, 4, 10.0), ConfigError);
  std::stringstream big_node("4,1.0,2.0\n");  // node_count=4 -> max id 3
  EXPECT_THROW(load_trace_csv(big_node, 4, 10.0), ConfigError);
  std::stringstream neg_start("1,-0.5,2.0\n");
  EXPECT_THROW(load_trace_csv(neg_start, 4, 10.0), ConfigError);
  std::stringstream ends_early("1,3.0,2.0\n");
  EXPECT_THROW(load_trace_csv(ends_early, 4, 10.0), ConfigError);
  std::stringstream past_end("1,1.0,11.0\n");  // duration_days=10
  EXPECT_THROW(load_trace_csv(past_end, 4, 10.0), ConfigError);
  // The same rows are fine when the violated bound is inferred instead.
  std::stringstream infer("4,1.0,11.0\n");
  const auto trace = load_trace_csv(infer);
  EXPECT_EQ(trace.node_count(), 5);
  EXPECT_DOUBLE_EQ(trace.duration_days(), 11.0);
}

TEST(TraceIo, RejectsUnsortedEvents) {
  std::stringstream unsorted("1,5.0,6.0\n0,1.0,2.0\n");
  EXPECT_THROW(load_trace_csv(unsorted, 4, 10.0), ConfigError);
  // Equal start days are legal (ties are broken internally).
  std::stringstream ties("1,5.0,6.0\n0,5.0,7.0\n");
  EXPECT_EQ(load_trace_csv(ties, 4, 10.0).events().size(), 2u);
}

TEST(TraceIo, ErrorNamesOffendingLine) {
  std::stringstream in("0,1.0,2.0\nbogus,3.0,4.0\n");
  try {
    load_trace_csv(in, 4, 10.0);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(TraceIo, ThrowsOnEmptyWithoutDimensions) {
  std::stringstream in("");
  EXPECT_THROW(load_trace_csv(in), ConfigError);
}

TEST(TraceIo, FileRoundTrip) {
  TraceGenConfig cfg;
  cfg.node_count = 10;
  cfg.duration_days = 12.0;
  const auto trace = generate_trace(cfg);
  const std::string path = ::testing::TempDir() + "/ihbd_trace.csv";
  ASSERT_TRUE(save_trace_csv(trace, path));
  const auto loaded = load_trace_csv_file(path, 10, 12.0);
  EXPECT_EQ(loaded.events().size(), trace.events().size());
  EXPECT_THROW(load_trace_csv_file("/nonexistent/x.csv"), ConfigError);
}

TEST(TraceIo, LoadedTraceDrivesReplay) {
  std::stringstream in("0,0.0,5.0\n1,2.0,3.0\n");
  const auto trace = load_trace_csv(in, 8, 10.0);
  EXPECT_EQ(trace.faulty_count_at(2.5), 2);
  EXPECT_EQ(trace.faulty_count_at(4.0), 1);
  EXPECT_EQ(trace.faulty_count_at(6.0), 0);
}

}  // namespace
}  // namespace ihbd::fault
