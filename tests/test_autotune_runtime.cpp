#include "dbgfs/runtime.hpp"

#include <gtest/gtest.h>

#include "autotune/tuner.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

namespace daos::dbgfs {
namespace {

workload::WorkloadProfile FastProfile() {
  workload::WorkloadProfile p;
  p.name = "test/runtime";
  p.suite = "test";
  p.data_bytes = 96 * MiB;
  p.runtime_s = 12;
  p.noise = 0;
  p.groups = {workload::GroupSpec{0.25, 0.0, 1.0, 0.3},
              workload::GroupSpec{0.75, -1.0, 1.0, 0.2}};
  return p;
}

EnvFactory MakeFactory(int* boots = nullptr) {
  return [boots]() {
    auto env = std::make_unique<TrialEnv>();
    env->system = std::make_unique<sim::System>(
        sim::MachineSpec::I3Metal().GuestOf(), sim::SwapConfig::Zram(),
        sim::ThpMode::kNever, 5 * kUsPerMs);
    const workload::WorkloadProfile p = FastProfile();
    sim::Process& proc = env->system->AddProcess(
        workload::ToProcessParams(p), workload::MakeSource(p, 31));
    env->workload_pid = proc.pid();
    env->damon = std::make_unique<DamonDbgfs>(env->system.get(), &env->fs);
    env->proc = std::make_unique<ProcFs>(env->system.get(), &env->fs);
    if (boots != nullptr) ++*boots;
    return env;
  };
}

autotune::TunerConfig Config() {
  autotune::TunerConfig cfg;
  cfg.nr_samples = 5;
  cfg.min_age_lo = 0;
  cfg.min_age_hi = 8 * kUsPerSec;
  cfg.seed = 3;
  return cfg;
}

/// The full §3.5 flow: tune prcl's min_age with a fresh run per sample.
autotune::TunerResult Tune(DbgfsRuntime& runtime) {
  return autotune::AutoTuner(Config()).Tune(
      damos::Scheme::Prcl(),
      [&](const damos::Scheme* s) { return runtime.RunOnce(s); });
}

TEST(DbgfsRuntimeTest, BaselineTrialMeasuresWorkload) {
  DbgfsRuntime runtime(MakeFactory());
  const autotune::TrialMeasurement m = runtime.RunOnce(nullptr);
  EXPECT_NEAR(m.runtime_s, 12.0, 1.5);
  // RSS ~ 25% hot + 75% cold of 96 MiB + aux/stack.
  EXPECT_GT(m.rss_bytes, 80.0 * MiB);
  EXPECT_EQ(runtime.trials(), 1);
}

TEST(DbgfsRuntimeTest, SchemeTrialTrimsMemory) {
  DbgfsRuntime runtime(MakeFactory());
  const autotune::TrialMeasurement base = runtime.RunOnce(nullptr);
  const damos::Scheme prcl = damos::Scheme::Prcl(2 * kUsPerSec);
  const autotune::TrialMeasurement trimmed = runtime.RunOnce(&prcl);
  // The cold 75 % gets paged out through the debugfs-installed scheme.
  EXPECT_LT(trimmed.rss_bytes, 0.6 * base.rss_bytes);
  EXPECT_LT(trimmed.runtime_s, base.runtime_s * 1.1);
}

TEST(DbgfsRuntimeTest, EveryTrialBootsFreshEnvironment) {
  int boots = 0;
  DbgfsRuntime runtime(MakeFactory(&boots));
  runtime.RunOnce(nullptr);
  const damos::Scheme prcl = damos::Scheme::Prcl(2 * kUsPerSec);
  runtime.RunOnce(&prcl);
  runtime.RunOnce(&prcl);
  EXPECT_EQ(boots, 3);
  EXPECT_EQ(runtime.trials(), 3);
}

TEST(DbgfsRuntimeTest, TuneRunsBudgetPlusBaseline) {
  int boots = 0;
  DbgfsRuntime runtime(MakeFactory(&boots));
  const autotune::TunerResult result = Tune(runtime);
  EXPECT_EQ(boots, 6);  // 1 baseline + 5 samples
  EXPECT_EQ(result.samples.size(), 5u);
  // The tuned scheme keeps the prcl shape.
  EXPECT_EQ(result.tuned.action(), damon::DamosAction::kPageout);
  // On a cold-heavy workload every aggressiveness helps; the tuned scheme
  // must land on a positive predicted score.
  EXPECT_GT(result.predicted_score, 0.0);
}

TEST(DbgfsRuntimeTest, TunedSchemeVerifiesEndToEnd) {
  DbgfsRuntime runtime(MakeFactory());
  const autotune::TunerResult result = Tune(runtime);
  const autotune::TrialMeasurement verify = runtime.RunOnce(&result.tuned);
  EXPECT_LT(verify.rss_bytes, 0.8 * result.baseline.rss_bytes);
}

TEST(DbgfsRuntimeTest, WatchdogKillsHungTrialAndRetrySucceeds) {
  int boots = 0;
  DbgfsRuntime runtime(MakeFactory(&boots));
  fault::FaultPlane plane(7);
  plane.Point(fault::kTrialHang).Arm(fault::FaultSpec{0.0, 0, 1});
  runtime.SetFaultPlane(&plane);

  const autotune::TrialMeasurement m = runtime.RunOnce(nullptr);
  // First attempt hangs until the workload's clock stops and is discarded;
  // the retry on a fresh environment measures normally.
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(runtime.trials(), 2);
  EXPECT_EQ(boots, 2);
  EXPECT_NEAR(m.runtime_s, 12.0, 1.5);
}

TEST(DbgfsRuntimeTest, TuneTerminatesWhenEveryTrialHangs) {
  DbgfsRuntime runtime(MakeFactory());
  fault::FaultPlane plane(7);
  plane.Point(fault::kTrialHang).Arm(fault::FaultSpec{0.0, 1, 0});
  runtime.SetFaultPlane(&plane);

  // Tuning must come back even though no trial ever measures: every trial
  // is watchdog-killed, retried its bounded once, and reported failed.
  const autotune::TunerResult result = Tune(runtime);
  EXPECT_EQ(result.failed_trials, 6);  // baseline + 5 samples
  EXPECT_EQ(runtime.trials(), 12);     // one bounded retry each
  ASSERT_EQ(result.samples.size(), 5u);
  for (const autotune::TunerSample& s : result.samples) EXPECT_TRUE(s.failed);
  EXPECT_DOUBLE_EQ(result.predicted_score, 0.0);
  const autotune::TunerConfig cfg = Config();
  EXPECT_EQ(result.tuned.bounds().min_age,
            (cfg.min_age_lo + cfg.min_age_hi) / 2);
}

}  // namespace
}  // namespace daos::dbgfs
