#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace daos {
namespace {

TEST(SplitWhitespaceTest, Basic) {
  const auto toks = SplitWhitespace("a bb  ccc");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0], "a");
  EXPECT_EQ(toks[1], "bb");
  EXPECT_EQ(toks[2], "ccc");
}

TEST(SplitWhitespaceTest, LeadingTrailingAndTabs) {
  const auto toks = SplitWhitespace("\t  x\ty \n z  ");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0], "x");
  EXPECT_EQ(toks[2], "z");
}

TEST(SplitWhitespaceTest, Empty) {
  EXPECT_TRUE(SplitWhitespace("").empty());
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(SplitCharTest, KeepsEmptyFields) {
  const auto toks = SplitChar("a,,b,", ',');
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0], "a");
  EXPECT_EQ(toks[1], "");
  EXPECT_EQ(toks[2], "b");
  EXPECT_EQ(toks[3], "");
}

TEST(SplitCharTest, NoDelimiter) {
  const auto toks = SplitChar("abc", ',');
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0], "abc");
}

TEST(TrimWhitespaceTest, Basic) {
  EXPECT_EQ(TrimWhitespace("  hi  "), "hi");
  EXPECT_EQ(TrimWhitespace("hi"), "hi");
  EXPECT_EQ(TrimWhitespace("\t\n"), "");
  EXPECT_EQ(TrimWhitespace(""), "");
}

TEST(StripCommentTest, Basic) {
  EXPECT_EQ(StripComment("code # comment"), "code ");
  EXPECT_EQ(StripComment("# all comment"), "");
  EXPECT_EQ(StripComment("no comment"), "no comment");
}

TEST(ToLowerTest, Basic) {
  EXPECT_EQ(ToLower("PageOut"), "pageout");
  EXPECT_EQ(ToLower("2MB"), "2mb");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("parsec3/canneal", "parsec3"));
  EXPECT_FALSE(StartsWith("parsec3", "parsec3/canneal"));
  EXPECT_TRUE(StartsWith("x", ""));
}

// --- strict number parsers -------------------------------------------------

TEST(ParseU64Test, AcceptsPlainDigitsUpToMax) {
  EXPECT_EQ(ParseU64("0"), 0u);
  EXPECT_EQ(ParseU64("007"), 7u);
  EXPECT_EQ(ParseU64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseU64Test, RejectsEverythingElse) {
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1.0",
                          "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(ParseU64(bad).has_value()) << bad;
  }
}

TEST(ParseU32Test, RangeChecked) {
  EXPECT_EQ(ParseU32("4294967295"), UINT32_MAX);
  EXPECT_FALSE(ParseU32("4294967296").has_value());
  EXPECT_FALSE(ParseU32("-1").has_value());
}

TEST(ParseFiniteDoubleTest, AcceptsDecimalAndHexFloats) {
  EXPECT_EQ(ParseFiniteDouble("0.25"), 0.25);
  EXPECT_EQ(ParseFiniteDouble("-3e2"), -300.0);
  EXPECT_EQ(ParseFiniteDouble("0x1.8p+1"), 3.0);
  // "%a" output parses back to the identical double.
  for (const double v : {0.1, 1.0 / 3.0, 12345.678e-9, -2.5e300}) {
    std::string text;
    AppendF(text, "%a", v);
    EXPECT_EQ(ParseFiniteDouble(text), v) << text;
  }
}

TEST(ParseFiniteDoubleTest, RejectsNonFiniteAndJunk) {
  for (const char* bad :
       {"", "nan", "NaN", "inf", "-inf", "infinity", "1e400", "0.5x", "x"}) {
    EXPECT_FALSE(ParseFiniteDouble(bad).has_value()) << bad;
  }
}

TEST(ParseProbabilityTest, ClosedUnitInterval) {
  EXPECT_EQ(ParseProbability("0"), 0.0);
  EXPECT_EQ(ParseProbability("1"), 1.0);
  EXPECT_EQ(ParseProbability("0.027"), 0.027);
  for (const char* bad : {"1.5", "-0.1", "nan", "inf", ""}) {
    EXPECT_FALSE(ParseProbability(bad).has_value()) << bad;
  }
}

// --- AppendF ---------------------------------------------------------------

TEST(AppendFTest, AppendsFormattedText) {
  std::string out = "x=";
  AppendF(out, "%d %s", 42, "y");
  EXPECT_EQ(out, "x=42 y");
}

TEST(AppendFTest, LongOutputIsNeverTruncated) {
  for (const std::size_t len : {255u, 256u, 300u, 10000u}) {
    const std::string name(len, 'n');
    std::string out = "name ";
    AppendF(out, "%s\n", name.c_str());
    EXPECT_EQ(out, "name " + name + "\n") << len;
  }
}

// --- LineCursor ------------------------------------------------------------

std::vector<std::pair<int, std::string>> Lines(std::string_view text,
                                               std::string_view separators,
                                               int* end_line) {
  std::vector<std::pair<int, std::string>> out;
  LineCursor lines(text, separators);
  std::string_view line;
  while (lines.Next(&line)) out.emplace_back(lines.line_no(), line);
  *end_line = lines.line_no();
  return out;
}

TEST(LineCursorTest, NumbersLinesAndPointsPastTheEnd) {
  using Rows = std::vector<std::pair<int, std::string>>;
  int end = 0;
  EXPECT_EQ(Lines("a\n\nb", "\n", &end), (Rows{{1, "a"}, {2, ""}, {3, "b"}}));
  EXPECT_EQ(end, 4);
  // A final separator closes the last line instead of opening another.
  EXPECT_EQ(Lines("a\nb\n", "\n", &end), (Rows{{1, "a"}, {2, "b"}}));
  EXPECT_EQ(end, 3);
  EXPECT_EQ(Lines("", "\n", &end), Rows{});
  EXPECT_EQ(end, 1);
}

TEST(LineCursorTest, AnySeparatorEndsALine) {
  using Rows = std::vector<std::pair<int, std::string>>;
  int end = 0;
  EXPECT_EQ(Lines("p=1; q\nr", "\n;", &end),
            (Rows{{1, "p=1"}, {2, " q"}, {3, "r"}}));
  EXPECT_EQ(Lines("p=1; q", "\n", &end), (Rows{{1, "p=1; q"}}));
}

TEST(LineCursorTest, StaysAtEndOnceExhausted) {
  LineCursor lines("only");
  std::string_view line;
  ASSERT_TRUE(lines.Next(&line));
  EXPECT_FALSE(lines.Next(&line));
  EXPECT_FALSE(lines.Next(&line));
  EXPECT_EQ(lines.line_no(), 2);
}

TEST(LineErrorTest, Prefix) {
  EXPECT_EQ(LineError(3, "bad thing"), "line 3: bad thing");
}

}  // namespace
}  // namespace daos
