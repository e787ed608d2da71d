#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace daos {
namespace {

TEST(SplitMix64, DeterministicStream) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, ReseedResetsStream) {
  Rng a(7);
  const std::uint64_t first = a.NextU64();
  a.NextU64();
  a.Reseed(7);
  EXPECT_EQ(a.NextU64(), first);
}

TEST(Rng, BoundedStaysInBound) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, BoundedZeroReturnsZero) {
  Rng rng(11);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(Rng, BoundedOneReturnsZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Rng, InRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.NextInRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleRoughlyUniformMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoolProbabilityZeroAndOne) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, BoolFrequencyTracksProbability) {
  Rng rng(9);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(ZipfSampler, InRange) {
  Rng rng(13);
  const ZipfSampler zipf(100, 0.9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Draw(rng), 100u);
  }
}

TEST(ZipfSampler, SmallNDegenerate) {
  Rng rng(13);
  EXPECT_EQ(ZipfSampler(0, 0.9).Draw(rng), 0u);
  EXPECT_EQ(ZipfSampler(1, 0.9).Draw(rng), 0u);
}

TEST(ZipfSampler, SkewsTowardLowRanks) {
  Rng rng(13);
  const ZipfSampler zipf(1000, 1.0);
  const int n = 50000;
  int low = 0;
  for (int i = 0; i < n; ++i) {
    if (zipf.Draw(rng) < 100) ++low;
  }
  // With s=1 roughly ln(101)/ln(1001) ~ 67 % of mass in the first 10 %.
  EXPECT_GT(low, n / 2);
}

TEST(ZipfSampler, ExponentOneCovered) {
  Rng rng(17);
  const ZipfSampler zipf(10, 1.0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(zipf.Draw(rng));
  EXPECT_GE(seen.size(), 8u);  // nearly all ranks appear
}

// The sampler's reference: the inverse-CDF draw evaluated in full on
// every call, (n, s)-only terms included.
std::uint64_t ReferenceZipf(Rng& rng, std::uint64_t n, double s) {
  if (n <= 1) return 0;
  const double u = rng.NextDouble();
  if (s == 1.0) {
    const double x = std::exp(u * std::log1p(static_cast<double>(n))) - 1.0;
    const auto r = static_cast<std::uint64_t>(x);
    return r >= n ? n - 1 : r;
  }
  const double oms = 1.0 - s;
  const double top = std::pow(static_cast<double>(n) + 1.0, oms) - 1.0;
  const double x = std::pow(u * top + 1.0, 1.0 / oms) - 1.0;
  if (x <= 0.0) return 0;
  const auto r = static_cast<std::uint64_t>(x);
  return r >= n ? n - 1 : r;
}

TEST(ZipfSampler, MatchesPerDrawFormulaExactly) {
  const std::uint64_t ns[] = {0, 1, 2, 10, 1000, std::uint64_t{1} << 20,
                              std::uint64_t{1} << 33};
  const double ss[] = {0.5, 0.9, 0.99, 1.0, 1.2};
  for (const std::uint64_t n : ns) {
    for (const double s : ss) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng got(seed);
        Rng want(seed);
        const ZipfSampler zipf(n, s);
        for (int i = 0; i < 2000; ++i) {
          ASSERT_EQ(zipf.Draw(got), ReferenceZipf(want, n, s))
              << "n " << n << " s " << s << " seed " << seed << " draw " << i;
        }
        ASSERT_EQ(got.State(), want.State())
            << "n " << n << " s " << s << " seed " << seed;
      }
    }
  }
}

class RngBoundednessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundednessTest, NeverExceedsBound) {
  const std::uint64_t bound = GetParam();
  Rng rng(bound * 31 + 7);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundednessTest,
                         ::testing::Values(2, 3, 7, 1000, 1u << 20,
                                           std::uint64_t{1} << 40));

}  // namespace
}  // namespace daos
