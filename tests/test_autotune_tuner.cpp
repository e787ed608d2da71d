#include "autotune/tuner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace daos::autotune {
namespace {

/// Synthetic trial runner: runtime and RSS respond to min_age with a known
/// optimum, plus deterministic noise — a stand-in for a real workload.
class SyntheticWorkload {
 public:
  explicit SyntheticWorkload(double best_age_s, std::uint64_t seed = 7)
      : best_age_s_(best_age_s), rng_(seed) {}

  TrialMeasurement Run(const damos::Scheme* scheme) {
    if (scheme == nullptr) return TrialMeasurement{100.0, 1000.0};
    const double age_s =
        static_cast<double>(scheme->bounds().min_age) / kUsPerSec;
    // Memory saving decays with min_age; slowdown explodes below the
    // workload's re-reference period (best_age_s).
    const double saving = 0.6 * std::exp(-age_s / 30.0);
    const double slowdown =
        age_s < best_age_s_ ? 0.4 * (best_age_s_ - age_s) / best_age_s_ : 0.01;
    const double noise = (rng_.NextDouble() - 0.5) * 0.02;
    return TrialMeasurement{100.0 * (1.0 + slowdown + noise),
                            1000.0 * (1.0 - saving)};
  }

  int trials = 0;

 private:
  double best_age_s_;
  Rng rng_;
};

TunerConfig Config(std::size_t samples = 10) {
  TunerConfig cfg;
  cfg.nr_samples = samples;
  cfg.min_age_lo = 0;
  cfg.min_age_hi = 60 * kUsPerSec;
  cfg.seed = 42;
  return cfg;
}

TEST(TunerTest, FindsKnownOptimumRegion) {
  SyntheticWorkload wl(/*best_age_s=*/15.0);
  AutoTuner tuner(Config(10));
  const TunerResult r = tuner.Tune(
      damos::Scheme::Prcl(), [&](const damos::Scheme* s) { return wl.Run(s); });
  // Optimum sits just above the re-reference period; accept a window.
  const double best_s = static_cast<double>(r.best_min_age) / kUsPerSec;
  EXPECT_GT(best_s, 8.0);
  EXPECT_LT(best_s, 40.0);
  EXPECT_GT(r.predicted_score, 0.0);
}

TEST(TunerTest, SampleBudgetRespected) {
  SyntheticWorkload wl(10.0);
  int trials = 0;
  AutoTuner tuner(Config(10));
  tuner.Tune(damos::Scheme::Prcl(), [&](const damos::Scheme* s) {
    if (s != nullptr) ++trials;
    return wl.Run(s);
  });
  EXPECT_EQ(trials, 10);
}

TEST(TunerTest, SixtyFortySplit) {
  SyntheticWorkload wl(10.0);
  AutoTuner tuner(Config(10));
  const TunerResult r = tuner.Tune(
      damos::Scheme::Prcl(), [&](const damos::Scheme* s) { return wl.Run(s); });
  int exploration = 0, exploitation = 0;
  for (const TunerSample& s : r.samples)
    (s.exploration ? exploration : exploitation) += 1;
  EXPECT_EQ(exploration, 6);
  EXPECT_EQ(exploitation, 4);
}

TEST(TunerTest, LocalSamplesNearBestGlobal) {
  SyntheticWorkload wl(20.0);
  AutoTuner tuner(Config(10));
  const TunerResult r = tuner.Tune(
      damos::Scheme::Prcl(), [&](const damos::Scheme* s) { return wl.Run(s); });
  // Best exploration sample:
  double best_score = -1e9;
  SimTimeUs best_age = 0;
  for (const TunerSample& s : r.samples) {
    if (s.exploration && s.score > best_score) {
      best_score = s.score;
      best_age = s.min_age;
    }
  }
  // Every exploitation sample within the documented radius (1/10 of space).
  const SimTimeUs radius = 6 * kUsPerSec;
  for (const TunerSample& s : r.samples) {
    if (s.exploration) continue;
    const SimTimeUs d =
        s.min_age > best_age ? s.min_age - best_age : best_age - s.min_age;
    EXPECT_LE(d, radius + kUsPerSec);
  }
}

TEST(TunerTest, FitDegreeIsSamplesOverThree) {
  SyntheticWorkload wl(10.0);
  AutoTuner tuner(Config(12));
  const TunerResult r = tuner.Tune(
      damos::Scheme::Prcl(), [&](const damos::Scheme* s) { return wl.Run(s); });
  ASSERT_TRUE(r.estimate.Valid());
  EXPECT_EQ(r.estimate.Degree(), 4u);  // 12 / 3
}

TEST(TunerTest, TunedSchemeKeepsActionAndShape) {
  SyntheticWorkload wl(10.0);
  AutoTuner tuner(Config(10));
  const damos::Scheme base = damos::Scheme::Prcl(5 * kUsPerSec);
  const TunerResult r = tuner.Tune(
      base, [&](const damos::Scheme* s) { return wl.Run(s); });
  EXPECT_EQ(r.tuned.action(), damon::DamosAction::kPageout);
  EXPECT_EQ(r.tuned.bounds().min_size, base.bounds().min_size);
  EXPECT_EQ(r.tuned.bounds().min_age, r.best_min_age);
}

TEST(TunerTest, BaselineMeasuredOnce) {
  SyntheticWorkload wl(10.0);
  int baseline_runs = 0;
  AutoTuner tuner(Config(10));
  const TunerResult r =
      tuner.Tune(damos::Scheme::Prcl(), [&](const damos::Scheme* s) {
        if (s == nullptr) ++baseline_runs;
        return wl.Run(s);
      });
  EXPECT_EQ(baseline_runs, 1);
  EXPECT_DOUBLE_EQ(r.baseline.runtime_s, 100.0);
}

TEST(TunerTest, DeterministicForSameSeed) {
  SyntheticWorkload wl1(10.0), wl2(10.0);
  AutoTuner t1(Config(10)), t2(Config(10));
  const TunerResult r1 = t1.Tune(
      damos::Scheme::Prcl(), [&](const damos::Scheme* s) { return wl1.Run(s); });
  const TunerResult r2 = t2.Tune(
      damos::Scheme::Prcl(), [&](const damos::Scheme* s) { return wl2.Run(s); });
  EXPECT_EQ(r1.best_min_age, r2.best_min_age);
}

// Property: across different optima positions, the tuner's pick never
// lands in the catastrophic-slowdown zone far below the optimum.
class TunerOptimumTest : public ::testing::TestWithParam<double> {};

TEST_P(TunerOptimumTest, AvoidsDeepSlowdownRegion) {
  const double best = GetParam();
  SyntheticWorkload wl(best, /*seed=*/static_cast<std::uint64_t>(best * 100));
  AutoTuner tuner(Config(12));
  const TunerResult r = tuner.Tune(
      damos::Scheme::Prcl(), [&](const damos::Scheme* s) { return wl.Run(s); });
  const double picked_s = static_cast<double>(r.best_min_age) / kUsPerSec;
  EXPECT_GT(picked_s, best * 0.4);
}

INSTANTIATE_TEST_SUITE_P(Optima, TunerOptimumTest,
                         ::testing::Values(8.0, 15.0, 25.0, 40.0));

}  // namespace
}  // namespace daos::autotune
