#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <vector>

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

// A generator whose next NextU64 returns `out`. NextU64 returns
// rotl(s1 * 5, 7) * 9 for state word s1, and 5 and 9 are odd, so
// s1 = rotr(out * 9^-1, 7) * 5^-1 (mod 2^64).
Rng RngYielding(std::uint64_t out) {
  const auto inverse = [](std::uint64_t a) {  // Newton: a odd
    std::uint64_t x = a;                      // exact to 3 bits
    for (int i = 0; i < 5; ++i) x *= 2 - a * x;
    return x;
  };
  Rng rng;
  rng.SetState({0, std::rotr(out * inverse(9), 7) * inverse(5), 0, 0});
  return rng;
}

// The reference rank of the draw whose 53-bit integer is m.
std::uint64_t ReferenceRankAt(std::uint64_t m, std::uint64_t n, double s) {
  Rng rng = RngYielding(m << 11);
  return ReferenceZipf(rng, n, s);
}

// `draws` draws of each seed against the reference, then the head table's
// every rank start through RankOf, the entry Draw calls: the last m of the
// rank before and the first m of the rank, and the head's end likewise.
void ExpectMatchesReference(std::uint64_t n, double s, int draws) {
  const ZipfSampler zipf(n, s);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng got(seed);
    Rng want(seed);
    for (int i = 0; i < draws; ++i) {
      ASSERT_EQ(zipf.Draw(got), ReferenceZipf(want, n, s))
          << "n " << n << " s " << s << " seed " << seed << " draw " << i;
    }
    ASSERT_EQ(got.State(), want.State())
        << "n " << n << " s " << s << " seed " << seed;
  }
  const std::vector<std::uint64_t>& starts = zipf.HeadStarts();
  for (std::size_t k = 0; k < starts.size(); ++k) {
    for (const std::uint64_t m : {starts[k] - 1, starts[k]}) {
      if (m >= std::uint64_t{1} << 53) continue;  // 0 - 1, or past the end
      ASSERT_EQ(zipf.RankOf(m), ReferenceRankAt(m, n, s))
          << "n " << n << " s " << s << " start " << k << " m " << m;
    }
  }
  // Each table stays under 128 KiB: at most 8192 ranks, and a guide of at
  // most 2^15 buckets, each twice the largest power of two <= 2^53 / n.
  ASSERT_LE(starts.size(), 8193u);
  if (!starts.empty()) {
    const int bucket_shift = 54 - std::bit_width(n - 1);
    EXPECT_LT((starts.back() - 1) >> bucket_shift, std::uint64_t{1} << 15)
        << "n " << n << " s " << s;
  }
}

TEST(ZipfSampler, MatchesPerDrawFormulaExactly) {
  const std::uint64_t ns[] = {0, 1, 2, 10, 1000, std::uint64_t{1} << 20,
                              std::uint64_t{1} << 33};
  const double ss[] = {0.5, 0.9, 0.99, 1.0, 1.2};
  for (const std::uint64_t n : ns) {
    for (const double s : ss) ExpectMatchesReference(n, s, 2000);
  }
  // The hot windows perfbench draws from: fig7's barnes and radiosity,
  // and the kvstore value log, a million draws each.
  ExpectMatchesReference(20240, 0.9, 1000000);
  ExpectMatchesReference(34020, 0.9, 1000000);
  ExpectMatchesReference(32768, 0.99, 1000000);
}

TEST(ZipfSampler, ProbeGeneratorYieldsItsValue) {
  for (const std::uint64_t out : {std::uint64_t{0}, std::uint64_t{1} << 11,
                                  std::uint64_t{0x0123456789abcdef},
                                  ~std::uint64_t{0}}) {
    EXPECT_EQ(RngYielding(out).NextU64(), out);
  }
}

TEST(ZipfSampler, TabulatesTheHeadWhereTheFormulaIsMonotone) {
  // |1/(1-s)| >= 4 gets a head table; s == 1 and s = 0.5 keep the formula.
  EXPECT_FALSE(ZipfSampler(20240, 0.9).HeadStarts().empty());
  EXPECT_FALSE(ZipfSampler(32768, 0.99).HeadStarts().empty());
  EXPECT_FALSE(ZipfSampler(1000, 1.2).HeadStarts().empty());
  EXPECT_TRUE(ZipfSampler(1000, 1.0).HeadStarts().empty());
  EXPECT_TRUE(ZipfSampler(1000, 0.5).HeadStarts().empty());
  // At n = 2^33 rank 0 alone spans more m than the guide may cover.
  EXPECT_TRUE(ZipfSampler(std::uint64_t{1} << 33, 0.9).HeadStarts().empty());
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
