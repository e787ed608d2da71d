#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <array>

namespace daos {
namespace {

TEST(Stats, MeanBasic) {
  const std::array<double, 4> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
}

TEST(Stats, MeanEmpty) { EXPECT_DOUBLE_EQ(Mean({}), 0.0); }

TEST(Stats, StdevKnownValue) {
  const std::array<double, 4> xs{2, 4, 4, 6};
  EXPECT_NEAR(Stdev(xs), 1.632993, 1e-5);
}

TEST(Stats, StdevSinglePointIsZero) {
  const std::array<double, 1> xs{5};
  EXPECT_DOUBLE_EQ(Stdev(xs), 0.0);
}

TEST(Stats, MinMax) {
  const std::array<double, 5> xs{3, -1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(Min(xs), -1);
  EXPECT_DOUBLE_EQ(Max(xs), 5);
}

TEST(Stats, PercentileEndpoints) {
  const std::array<double, 5> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 50);
}

TEST(Stats, PercentileMedian) {
  const std::array<double, 5> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 30);
}

TEST(Stats, PercentileInterpolates) {
  const std::array<double, 2> xs{0, 10};
  EXPECT_DOUBLE_EQ(Percentile(xs, 25), 2.5);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::array<double, 5> xs{50, 10, 40, 20, 30};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 30);
}

TEST(RunningStats, MatchesBatchComputation) {
  const std::array<double, 6> xs{1.5, 2.5, -3, 8, 0, 4};
  RunningStats rs;
  for (double x : xs) rs.Add(x);
  EXPECT_EQ(rs.Count(), xs.size());
  EXPECT_NEAR(rs.Mean(), Mean(xs), 1e-12);
  EXPECT_NEAR(rs.Stdev(), Stdev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.Min(), -3);
  EXPECT_DOUBLE_EQ(rs.Max(), 8);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.Count(), 0u);
  EXPECT_DOUBLE_EQ(rs.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.Stdev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats rs;
  rs.Add(7.0);
  EXPECT_DOUBLE_EQ(rs.Mean(), 7.0);
  EXPECT_DOUBLE_EQ(rs.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.Min(), 7.0);
  EXPECT_DOUBLE_EQ(rs.Max(), 7.0);
}

}  // namespace
}  // namespace daos
