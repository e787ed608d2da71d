#include "autotune/score.hpp"

#include <gtest/gtest.h>

namespace daos::autotune {
namespace {

constexpr TrialMeasurement kBaseline{100.0, 1000.0};

TEST(RawScoreTest, NoChangeIsZero) {
  EXPECT_DOUBLE_EQ(RawScore(kBaseline, kBaseline), 0.0);
}

TEST(RawScoreTest, PureMemorySaving) {
  // 40 % RSS saving, no slowdown: equal weights -> +20 points.
  const TrialMeasurement t{100.0, 600.0};
  EXPECT_NEAR(RawScore(t, kBaseline), 20.0, 1e-9);
}

TEST(RawScoreTest, PureSlowdown) {
  // 20 % slower, no saving -> -10 points.
  const TrialMeasurement t{120.0, 1000.0};
  EXPECT_NEAR(RawScore(t, kBaseline), -10.0, 1e-9);
}

TEST(RawScoreTest, WeightsRespected) {
  const TrialMeasurement t{110.0, 500.0};
  // perf: -0.1, mem: +0.5.
  EXPECT_NEAR(RawScore(t, kBaseline, 1.0, 0.0), -10.0, 1e-9);
  EXPECT_NEAR(RawScore(t, kBaseline, 0.0, 1.0), 50.0, 1e-9);
}

TEST(RawScoreTest, ZeroBaselineSafe) {
  EXPECT_DOUBLE_EQ(RawScore(kBaseline, TrialMeasurement{0.0, 0.0}), 0.0);
}

TEST(ScoreFunctionTest, WithinSlaMatchesRawScore) {
  ScoreFunction fn;
  const TrialMeasurement t{105.0, 700.0};  // 5 % drop: within 10 % SLA
  EXPECT_NEAR(fn.Score(t, kBaseline), RawScore(t, kBaseline), 1e-9);
}

TEST(ScoreFunctionTest, SlaViolationReturnsWorstSeen) {
  // Listing 2: once the SLA is broken, return min(prev_scores).
  ScoreFunction fn;
  const double s1 = fn.Score(TrialMeasurement{101.0, 900.0}, kBaseline);
  const double s2 = fn.Score(TrialMeasurement{104.0, 500.0}, kBaseline);
  const double worst = std::min(s1, s2);
  const double violation =
      fn.Score(TrialMeasurement{150.0, 100.0}, kBaseline);  // 50 % drop
  EXPECT_DOUBLE_EQ(violation, worst);
}

TEST(ScoreFunctionTest, SlaViolationFirstHasFloor) {
  ScoreFunction fn;
  const double v = fn.Score(TrialMeasurement{200.0, 100.0}, kBaseline);
  EXPECT_LE(v, 0.0);  // never rewarded
}

TEST(ScoreFunctionTest, ExactlyTenPercentDropViolates) {
  // Listing 2 uses strict ">": pscore == -0.1 is NOT within the SLA.
  ScoreFunction fn;
  const double good = fn.Score(TrialMeasurement{109.9, 500.0}, kBaseline);
  EXPECT_GT(good, 0.0);
  const double edge = fn.Score(TrialMeasurement{110.0, 1.0}, kBaseline);
  EXPECT_DOUBLE_EQ(edge, good);  // falls back to best==worst==good
}

TEST(ScoreFunctionTest, ResetClearsHistory) {
  ScoreFunction fn;
  fn.Score(TrialMeasurement{101.0, 200.0}, kBaseline);  // big positive
  fn.Reset();
  // After reset, a violation cannot return the old positive score.
  const double v = fn.Score(TrialMeasurement{200.0, 100.0}, kBaseline);
  EXPECT_LE(v, 0.0);
}

TEST(ScoreFunctionTest, SlaViolationOutweighsAnySaving) {
  ScoreFunction fn;
  fn.Score(TrialMeasurement{100.0, 900.0}, kBaseline);
  // A 15 % drop violates the 10 % SLA; its 90 % saving (raw score 37.5)
  // does not count.
  const double v = fn.Score(TrialMeasurement{115.0, 100.0}, kBaseline);
  EXPECT_NEAR(v, 5.0, 1e-9);  // worst seen: the first sample's score
}

}  // namespace
}  // namespace daos::autotune
