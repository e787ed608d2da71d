// The bench trajectory writer (bench/common.hpp): every BENCH_*.json row
// goes through AppendTrajectory, so it must append without disturbing the
// history before it, stamp each row's provenance, and refuse to touch a
// file that is not a JSON array.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench/common.hpp"

namespace daos::bench {
namespace {

class TrajectoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/BENCH_trajectory_test.json";
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    ASSERT_EQ(setenv("DAOS_JOBS", "3", 1), 0);
    ASSERT_EQ(unsetenv("DAOS_BENCH_FULL"), 0);
  }
  void TearDown() override {
    std::remove(path_.c_str());
    unsetenv("DAOS_JOBS");
  }

  void Write(const std::string& bytes) const {
    std::ofstream(path_, std::ios::binary) << bytes;
  }
  std::string Read() const {
    std::ostringstream out;
    out << std::ifstream(path_, std::ios::binary).rdbuf();
    return out.str();
  }
  bool TmpExists() const {
    return std::ifstream(path_ + ".tmp").good();
  }

  /// What the writer adds to a row: the five provenance keys.
  static std::string Stamp(const char* mode) {
    std::string out;
    AppendF(out,
            ", \"hardware_concurrency\": %u, \"jobs\": 3, \"build_type\": "
            "\"%s\", \"git_revision\": \"%s\", \"mode\": \"%s\"}",
            std::thread::hardware_concurrency(), DAOS_BUILD_TYPE,
            DAOS_GIT_REVISION, mode);
    return out;
  }

  std::string path_;
};

TEST_F(TrajectoryTest, MissingFileStartsAnArray) {
  ASSERT_TRUE(AppendTrajectory(path_, "{\"bench\": \"t\", \"x\": 1}"));
  EXPECT_EQ(Read(),
            "[\n  {\"bench\": \"t\", \"x\": 1" + Stamp("quick") + "\n]\n");
  EXPECT_TRUE(IsJsonArray(Read()));
  EXPECT_FALSE(TmpExists());
}

TEST_F(TrajectoryTest, EmptyFileStartsAnArray) {
  Write("");
  ASSERT_TRUE(AppendTrajectory(path_, "{\"bench\": \"t\"}"));
  EXPECT_EQ(Read(), "[\n  {\"bench\": \"t\"" + Stamp("quick") + "\n]\n");
}

TEST_F(TrajectoryTest, FullModeIsStamped) {
  ASSERT_EQ(setenv("DAOS_BENCH_FULL", "1", 1), 0);
  ASSERT_TRUE(AppendTrajectory(path_, "{\"bench\": \"t\"}"));
  unsetenv("DAOS_BENCH_FULL");
  EXPECT_EQ(Read(), "[\n  {\"bench\": \"t\"" + Stamp("full") + "\n]\n");
}

TEST_F(TrajectoryTest, GitRevisionIsStamped) {
  // A configure-time short revision (12 hex digits), or "unknown" when the
  // source tree is not a git checkout.
  const std::string rev = DAOS_GIT_REVISION;
  if (rev != "unknown") {
    ASSERT_EQ(rev.size(), 12u) << rev;
    EXPECT_EQ(rev.find_first_not_of("0123456789abcdef"), std::string::npos)
        << rev;
  }
  ASSERT_TRUE(AppendTrajectory(path_, "{\"bench\": \"t\"}"));
  EXPECT_NE(Read().find("\"git_revision\": \"" + rev + "\""),
            std::string::npos)
      << Read();
}

TEST_F(TrajectoryTest, AppendsAfterTrailingWhitespace) {
  Write("[\n  {\"bench\": \"old\"}\n]\n \n\n");
  ASSERT_TRUE(AppendTrajectory(path_, "{\"bench\": \"new\"}"));
  EXPECT_EQ(Read(), "[\n  {\"bench\": \"old\"},\n  {\"bench\": \"new\"" +
                        Stamp("quick") + "\n]\n");
}

TEST_F(TrajectoryTest, AppendsToAnEmptyArray) {
  Write("[]");
  ASSERT_TRUE(AppendTrajectory(path_, "{\"bench\": \"t\"}"));
  EXPECT_EQ(Read(), "[\n  {\"bench\": \"t\"" + Stamp("quick") + "\n]\n");
}

// The governor / runner / tiering shape: a row whose nested array spans
// lines, with brackets inside a string for good measure.
TEST_F(TrajectoryTest, MultiLineRowsKeepTheirBytes) {
  const std::string old =
      "[\n  {\"bench\": \"micro_runner\", \"levels\": [\n"
      "    {\"jobs\": 1, \"note\": \"]}[\\\"\"},\n"
      "    {\"jobs\": 2}\n"
      "  ]}\n]\n";
  Write(old);
  const std::string row =
      "{\"bench\": \"micro_runner\", \"levels\": [\n    {\"jobs\": 4}\n  ]}";
  ASSERT_TRUE(AppendTrajectory(path_, row));
  const std::string expected = old.substr(0, old.size() - 3) + ",\n  " +
                               row.substr(0, row.size() - 1) +
                               Stamp("quick") + "\n]\n";
  EXPECT_EQ(Read(), expected);
  EXPECT_TRUE(IsJsonArray(Read()));
}

TEST_F(TrajectoryTest, TruncatedArrayIsLeftByteIdentical) {
  const std::string whole =
      "[\n  {\"bench\": \"a\", \"levels\": [\n    {\"jobs\": 1}\n  ]},\n"
      "  {\"bench\": \"b\", \"s\": \"x]\"}\n]";
  // Every cut that loses the closing bracket, blank ones excepted.
  for (std::size_t len = 1; len < whole.size(); ++len) {
    const std::string cut = whole.substr(0, len);
    Write(cut);
    EXPECT_FALSE(AppendTrajectory(path_, "{\"bench\": \"t\"}")) << cut;
    EXPECT_EQ(Read(), cut);
    EXPECT_FALSE(TmpExists());
  }
}

TEST_F(TrajectoryTest, NonArraysAreRefused) {
  for (const std::string bytes :
       {"{\"bench\": \"t\"}\n", "[1] [2]\n", "garbage\n", "]\n"}) {
    Write(bytes);
    EXPECT_FALSE(AppendTrajectory(path_, "{\"bench\": \"t\"}")) << bytes;
    EXPECT_EQ(Read(), bytes);
  }
}

}  // namespace
}  // namespace daos::bench
