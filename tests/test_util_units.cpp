#include "util/units.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace daos {
namespace {

TEST(ParseSizeTest, PlainBytes) {
  EXPECT_EQ(ParseSize("4096"), 4096u);
  EXPECT_EQ(ParseSize("0"), 0u);
}

TEST(ParseSizeTest, Suffixes) {
  EXPECT_EQ(ParseSize("4K"), 4 * KiB);
  EXPECT_EQ(ParseSize("4KB"), 4 * KiB);
  EXPECT_EQ(ParseSize("4KiB"), 4 * KiB);
  EXPECT_EQ(ParseSize("2M"), 2 * MiB);
  EXPECT_EQ(ParseSize("2MB"), 2 * MiB);
  EXPECT_EQ(ParseSize("1G"), GiB);
  EXPECT_EQ(ParseSize("1T"), 1024 * GiB);
}

TEST(ParseSizeTest, CaseInsensitive) {
  EXPECT_EQ(ParseSize("2mb"), 2 * MiB);
  EXPECT_EQ(ParseSize("2Mb"), 2 * MiB);
}

TEST(ParseSizeTest, Fractional) { EXPECT_EQ(ParseSize("1.5K"), 1536u); }

TEST(ParseSizeTest, Invalid) {
  EXPECT_FALSE(ParseSize("abc").has_value());
  EXPECT_FALSE(ParseSize("12X").has_value());
  EXPECT_FALSE(ParseSize("").has_value());
  EXPECT_FALSE(ParseSize("-4K").has_value());
}

TEST(ParseSizeTest, RejectsValuesBeyond64Bits) {
  EXPECT_EQ(ParseSize("16777215T"), 16777215ULL << 40);
  EXPECT_FALSE(ParseSize("16777216T").has_value());  // exactly 2^64
  EXPECT_FALSE(ParseSize("99999999T").has_value());
}

TEST(ParseDurationTest, BareNumberIsSeconds) {
  EXPECT_EQ(ParseDuration("5"), 5 * kUsPerSec);
}

TEST(ParseDurationTest, Suffixes) {
  EXPECT_EQ(ParseDuration("250us"), 250u);
  EXPECT_EQ(ParseDuration("5ms"), 5 * kUsPerMs);
  EXPECT_EQ(ParseDuration("2s"), 2 * kUsPerSec);
  EXPECT_EQ(ParseDuration("2m"), 2 * kUsPerMin);
  EXPECT_EQ(ParseDuration("3min"), 3 * kUsPerMin);
  EXPECT_EQ(ParseDuration("1h"), 60 * kUsPerMin);
}

TEST(ParseDurationTest, PaperListingValues) {
  // Values straight from Listings 1 and 3.
  EXPECT_EQ(ParseDuration("2m"), 2 * kUsPerMin);
  EXPECT_EQ(ParseDuration("1m"), kUsPerMin);
  EXPECT_EQ(ParseDuration("7s"), 7 * kUsPerSec);
  EXPECT_EQ(ParseDuration("5s"), 5 * kUsPerSec);
}

TEST(ParseDurationTest, Invalid) {
  EXPECT_FALSE(ParseDuration("fast").has_value());
  EXPECT_FALSE(ParseDuration("5parsecs").has_value());
}

TEST(ParseDurationTest, RejectsValuesBeyond64Bits) {
  EXPECT_FALSE(ParseDuration("99999999999999h").has_value());
  EXPECT_FALSE(ParseDuration("18446744073709551616us").has_value());
}

TEST(ParsePercentTest, PercentSuffix) {
  EXPECT_DOUBLE_EQ(ParsePercent("80%").value(), 0.8);
  EXPECT_DOUBLE_EQ(ParsePercent("5%").value(), 0.05);
  EXPECT_DOUBLE_EQ(ParsePercent("0%").value(), 0.0);
}

TEST(ParsePercentTest, BareFraction) {
  EXPECT_DOUBLE_EQ(ParsePercent("0.8").value(), 0.8);
}

TEST(ParsePercentTest, Invalid) {
  EXPECT_FALSE(ParsePercent("eighty").has_value());
  EXPECT_FALSE(ParsePercent("-10%").has_value());
}

TEST(FormatSizeTest, Ranges) {
  EXPECT_EQ(FormatSize(512), "512B");
  EXPECT_EQ(FormatSize(4 * KiB), "4.0K");
  EXPECT_EQ(FormatSize(2 * MiB), "2.0M");
  EXPECT_EQ(FormatSize(3 * GiB / 2), "1.5G");
}

TEST(FormatDurationTest, Ranges) {
  EXPECT_EQ(FormatDuration(250), "250us");
  EXPECT_EQ(FormatDuration(5 * kUsPerMs), "5ms");
  EXPECT_EQ(FormatDuration(2 * kUsPerSec), "2s");
  EXPECT_EQ(FormatDuration(2 * kUsPerMin), "2m");
}

TEST(FormatDurationTest, ReadsBackExactly) {
  // Millisecond and second text is kept where it parses back to the same
  // value; elsewhere the finer unit prints ("1.0004s" used to read "1.000s",
  // 1.001s parsed as 1000999us, and 1500us printed as "1ms").
  EXPECT_EQ(FormatDuration(1250 * kUsPerMs), "1.250s");
  EXPECT_EQ(FormatDuration(1000400), "1000400us");
  EXPECT_EQ(FormatDuration(1001 * kUsPerMs), "1001ms");
  EXPECT_EQ(FormatDuration(1500), "1500us");
  for (const SimTimeUs v : {SimTimeUs{1500}, SimTimeUs{1000400},
                            SimTimeUs{1001000}, SimTimeUs{1000999},
                            SimTimeUs{5500000}, SimTimeUs{90061000}})
    EXPECT_EQ(ParseDuration(FormatDuration(v)), v) << v;
}

TEST(FormatPercentTest, WholeAndFraction) {
  EXPECT_EQ(FormatPercent(0.8), "80%");
  EXPECT_EQ(FormatPercent(0.055), "5.50%");
}

// Round-trip property: format then parse returns the original value.
class SizeRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SizeRoundTrip, FormatParse) {
  const std::uint64_t v = GetParam();
  const auto parsed = ParseSize(FormatSize(v));
  ASSERT_TRUE(parsed.has_value());
  // Formatting rounds to one decimal; allow 5% slack.
  EXPECT_NEAR(static_cast<double>(*parsed), static_cast<double>(v),
              static_cast<double>(v) * 0.05 + 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeRoundTrip,
                         ::testing::Values(1, 4096, 2 * MiB, 3 * GiB,
                                           123456789));

class DurationRoundTrip : public ::testing::TestWithParam<SimTimeUs> {};

TEST_P(DurationRoundTrip, FormatParse) {
  const SimTimeUs v = GetParam();
  const auto parsed = ParseDuration(FormatDuration(v));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NEAR(static_cast<double>(*parsed), static_cast<double>(v),
              static_cast<double>(v) * 0.001 + 1);
}

INSTANTIATE_TEST_SUITE_P(Durations, DurationRoundTrip,
                         ::testing::Values(1, 500, 5 * kUsPerMs, kUsPerSec,
                                           90 * kUsPerSec, 2 * kUsPerMin));

// Divisor's multiply against the divide it replaces: every divisor a
// group's used-pages-per-block takes, over every index below 2^16, then
// random indices up to the 2^32 bound.
TEST(Divisor, MatchesDivideAndRemainder) {
  for (std::uint64_t d = 1; d <= kPagesPerHuge; ++d) {
    const Divisor div(d);
    ASSERT_EQ(div.value(), d);
    for (std::uint64_t x = 0; x < (1u << 16); ++x) {
      const std::uint64_t q = div.Quotient(x);
      ASSERT_EQ(q, x / d) << "x " << x << " d " << d;
      ASSERT_EQ(x - q * d, x % d) << "x " << x << " d " << d;
    }
  }
  Rng rng(31);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t d = rng.NextInRange(1, kPagesPerHuge);
    const std::uint64_t x = rng.NextBounded(std::uint64_t{1} << 32);
    const std::uint64_t q = Divisor(d).Quotient(x);
    ASSERT_EQ(q, x / d) << "x " << x << " d " << d;
    ASSERT_EQ(x - q * d, x % d) << "x " << x << " d " << d;
  }
  // The bound's edge, where the reciprocal's overshoot is largest.
  for (std::uint64_t d = 1; d <= kPagesPerHuge; ++d) {
    const std::uint64_t x = (std::uint64_t{1} << 32) - 1;
    ASSERT_EQ(Divisor(d).Quotient(x), x / d) << "d " << d;
  }
}

}  // namespace
}  // namespace daos
