#include "damon/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace daos::damon {
namespace {

std::vector<Snapshot> SampleSnapshots() {
  Snapshot a;
  a.at = 100000;
  a.target_index = 0;
  a.regions = {SnapshotRegion{0x1000, 0x5000, 3, 7},
               SnapshotRegion{0x5000, 0x9000, 0, 42}};
  Snapshot b;
  b.at = 200000;
  b.target_index = 1;
  b.regions = {SnapshotRegion{0x10000, 0x20000, 20, 0}};
  return {a, b};
}

TEST(TraceTest, SerializeFormat) {
  const std::string text = SerializeTrace(SampleSnapshots());
  EXPECT_NE(text.find("T 100000 0 2\n"), std::string::npos);
  EXPECT_NE(text.find("R 4096 20480 3 7\n"), std::string::npos);
  EXPECT_NE(text.find("T 200000 1 1\n"), std::string::npos);
}

TEST(TraceTest, RoundTrip) {
  const auto original = SampleSnapshots();
  const auto parsed = ParseTrace(SerializeTrace(original));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*parsed)[i].at, original[i].at);
    EXPECT_EQ((*parsed)[i].target_index, original[i].target_index);
    ASSERT_EQ((*parsed)[i].regions.size(), original[i].regions.size());
    for (std::size_t j = 0; j < original[i].regions.size(); ++j) {
      EXPECT_EQ((*parsed)[i].regions[j].start, original[i].regions[j].start);
      EXPECT_EQ((*parsed)[i].regions[j].end, original[i].regions[j].end);
      EXPECT_EQ((*parsed)[i].regions[j].nr_accesses,
                original[i].regions[j].nr_accesses);
      EXPECT_EQ((*parsed)[i].regions[j].age, original[i].regions[j].age);
    }
  }
}

TEST(TraceTest, EmptyTrace) {
  const auto parsed = ParseTrace("");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
  EXPECT_EQ(SerializeTrace({}), "");
}

TEST(TraceTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseTrace("X 1 2 3\n").has_value());
  EXPECT_FALSE(ParseTrace("R 0 4096 1 0\n").has_value());   // R before T
  EXPECT_FALSE(ParseTrace("T 1 0 2\nR 0 4096 1 0\n").has_value());  // short
  EXPECT_FALSE(ParseTrace("T 1 0 1\nR 4096 0 1 0\n").has_value());  // end<start
  EXPECT_FALSE(ParseTrace("T one 0 1\n").has_value());
  // Well-formed apart from one field, which a lenient reader would wrap or
  // drop.
  EXPECT_FALSE(ParseTrace("T 1 0 1\nR 0 4096 -1 0\n").has_value());
  EXPECT_FALSE(ParseTrace("T 1 0 1\nR 0 4096 4294967296 0\n").has_value());
  EXPECT_FALSE(ParseTrace("T 1 -1 1\nR 0 4096 1 0\n").has_value());
  EXPECT_FALSE(ParseTrace("T 1 2147483648 1\nR 0 4096 1 0\n").has_value());
  EXPECT_FALSE(ParseTrace("T -5 0 1\nR 0 4096 1 0\n").has_value());
  EXPECT_FALSE(ParseTrace("T 1 0 1 7\nR 0 4096 1 0\n").has_value());
  EXPECT_FALSE(ParseTrace("T 1 0 1\nR 0 4096 1 0 7\n").has_value());
}

TEST(TraceTest, RejectsExtraRegions) {
  EXPECT_FALSE(
      ParseTrace("T 1 0 1\nR 0 4096 1 0\nR 4096 8192 1 0\n").has_value());
}

TEST(TraceTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/daos_trace_test.rec";
  ASSERT_TRUE(WriteTraceFile(path, SampleSnapshots()));
  const auto parsed = ReadTraceFile(path);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 2u);
  std::remove(path.c_str());
}

TEST(TraceTest, MissingFile) {
  EXPECT_FALSE(ReadTraceFile("/nonexistent/daos.rec").has_value());
}

}  // namespace
}  // namespace daos::damon
