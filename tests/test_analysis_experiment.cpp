#include "analysis/experiment.hpp"

#include <gtest/gtest.h>

#include "analysis/report.hpp"

namespace daos::analysis {
namespace {

/// A fast test workload: 128 MiB, 10 s nominal runtime, 30 % hot / 20 %
/// warm / 50 % cold — small enough that a full run takes milliseconds.
workload::WorkloadProfile FastProfile() {
  workload::WorkloadProfile p;
  p.name = "test/fast";
  p.suite = "test";
  p.data_bytes = 128 * MiB;
  p.runtime_s = 10;
  p.noise = 0.0;
  p.thp_gain = 0.15;
  p.groups = {
      workload::GroupSpec{0.30, 0.0, 1.0, 0.3},
      workload::GroupSpec{0.20, 3.0, 1.0, 0.3},
      workload::GroupSpec{0.50, -1.0, 0.6, 0.2},
  };
  p.zipf_touches_per_s = 8000;
  return p;
}

ExperimentOptions FastOptions() {
  ExperimentOptions opt;
  opt.max_time = 120 * kUsPerSec;
  opt.apply_runtime_noise = false;
  return opt;
}

TEST(ExperimentTest, BaselineFinishesAtNominalRuntime) {
  const ExperimentResult r =
      RunWorkload(FastProfile(), Config::kBaseline, FastOptions());
  EXPECT_TRUE(r.finished);
  // Populate stall adds a little over the nominal 10 s.
  EXPECT_NEAR(r.runtime_s, 10.0, 0.7);
  EXPECT_GT(r.avg_rss_bytes, 0.0);
  EXPECT_DOUBLE_EQ(r.monitor_cpu_fraction, 0.0);  // no monitoring
}

TEST(ExperimentTest, RecMonitorsWithSmallOverhead) {
  const ExperimentResult base =
      RunWorkload(FastProfile(), Config::kBaseline, FastOptions());
  const ExperimentResult rec =
      RunWorkload(FastProfile(), Config::kRec, FastOptions());
  EXPECT_TRUE(rec.finished);
  EXPECT_GT(rec.monitor_cpu_fraction, 0.0);
  EXPECT_LT(rec.monitor_cpu_fraction, 0.05);
  // Conclusion-3: at most a few percent slowdown.
  EXPECT_LT(rec.runtime_s / base.runtime_s, 1.05);
}

TEST(ExperimentTest, PrecMonitorsPhysicalSpace) {
  const ExperimentResult prec =
      RunWorkload(FastProfile(), Config::kPrec, FastOptions());
  EXPECT_TRUE(prec.finished);
  EXPECT_GT(prec.monitor_cpu_fraction, 0.0);
  EXPECT_LT(prec.monitor_cpu_fraction, 0.05);
}

TEST(ExperimentTest, ThpBloatsAndSpeedsUp) {
  const ExperimentResult base =
      RunWorkload(FastProfile(), Config::kBaseline, FastOptions());
  const ExperimentResult thp =
      RunWorkload(FastProfile(), Config::kThp, FastOptions());
  const NormalizedResult n = Normalize(thp, base);
  EXPECT_GT(n.performance, 1.0);        // faster (TLB gain)
  EXPECT_LT(n.memory_efficiency, 1.0);  // bloated (sparse cold blocks)
}

TEST(ExperimentTest, PrclSavesMemory) {
  const ExperimentResult base =
      RunWorkload(FastProfile(), Config::kBaseline, FastOptions());
  const ExperimentResult prcl =
      RunWorkload(FastProfile(), Config::kPrcl, FastOptions());
  const NormalizedResult n = Normalize(prcl, base);
  EXPECT_GT(n.memory_efficiency, 1.2);  // the 50 % cold tail gets evicted
  EXPECT_GT(n.performance, 0.7);        // without catastrophic slowdown
  ASSERT_EQ(prcl.scheme_stats.size(), 1u);
  EXPECT_GT(prcl.scheme_stats[0].sz_applied, 16 * MiB);
}

TEST(ExperimentTest, EthpKeepsGainDropsBloat) {
  const ExperimentOptions opt = FastOptions();
  const ExperimentResult base =
      RunWorkload(FastProfile(), Config::kBaseline, opt);
  const ExperimentResult thp = RunWorkload(FastProfile(), Config::kThp, opt);
  const ExperimentResult ethp = RunWorkload(FastProfile(), Config::kEthp, opt);
  const NormalizedResult nthp = Normalize(thp, base);
  const NormalizedResult nethp = Normalize(ethp, base);
  // ethp keeps part of the speedup...
  EXPECT_GT(nethp.performance, 1.0);
  // ...with clearly less memory bloat than full THP.
  EXPECT_GT(nethp.memory_efficiency, nthp.memory_efficiency);
}

TEST(ExperimentTest, CustomSchemesInstalled) {
  const auto schemes = PrclSchemes(2 * kUsPerSec);
  const ExperimentResult r = RunWorkload(FastProfile(), Config::kSchemes,
                                         FastOptions(), &schemes);
  ASSERT_EQ(r.scheme_stats.size(), 1u);
  EXPECT_GT(r.scheme_stats[0].nr_applied, 0u);
}

TEST(ExperimentTest, RecorderCapturesPattern) {
  damon::Recorder recorder;
  const ExperimentResult r = RunWorkload(FastProfile(), Config::kRec,
                                         FastOptions(), nullptr, &recorder);
  EXPECT_TRUE(r.finished);
  EXPECT_GT(recorder.snapshots().size(), 10u);
}

TEST(ExperimentTest, DeterministicWithoutNoise) {
  const ExperimentResult a =
      RunWorkload(FastProfile(), Config::kPrcl, FastOptions());
  const ExperimentResult b =
      RunWorkload(FastProfile(), Config::kPrcl, FastOptions());
  EXPECT_DOUBLE_EQ(a.runtime_s, b.runtime_s);
  EXPECT_DOUBLE_EQ(a.avg_rss_bytes, b.avg_rss_bytes);
}

TEST(ExperimentTest, NoiseVariesWithSeed) {
  workload::WorkloadProfile noisy = FastProfile();
  noisy.noise = 0.05;
  ExperimentOptions opt = FastOptions();
  opt.apply_runtime_noise = true;
  opt.seed = 1;
  const ExperimentResult a = RunWorkload(noisy, Config::kBaseline, opt);
  opt.seed = 2;
  const ExperimentResult b = RunWorkload(noisy, Config::kBaseline, opt);
  EXPECT_NE(a.runtime_s, b.runtime_s);
}

TEST(ExperimentTest, FasterMachineShorterRuntime) {
  ExperimentOptions i3 = FastOptions();
  ExperimentOptions z1d = FastOptions();
  z1d.host = sim::MachineSpec::Z1dMetal();
  const ExperimentResult a = RunWorkload(FastProfile(), Config::kBaseline, i3);
  const ExperimentResult b =
      RunWorkload(FastProfile(), Config::kBaseline, z1d);
  EXPECT_LT(b.runtime_s, a.runtime_s);
}

TEST(ExperimentTest, ConfigNamesMatchPaper) {
  EXPECT_EQ(ConfigName(Config::kBaseline), "baseline");
  EXPECT_EQ(ConfigName(Config::kRec), "rec");
  EXPECT_EQ(ConfigName(Config::kPrec), "prec");
  EXPECT_EQ(ConfigName(Config::kThp), "thp");
  EXPECT_EQ(ConfigName(Config::kEthp), "ethp");
  EXPECT_EQ(ConfigName(Config::kPrcl), "prcl");
}

TEST(ExperimentTest, ListingSchemesMatchPaper) {
  const auto ethp = EthpSchemes();
  ASSERT_EQ(ethp.size(), 2u);
  EXPECT_EQ(ethp[0].action(), damon::DamosAction::kHugepage);
  EXPECT_EQ(ethp[1].action(), damon::DamosAction::kNohugepage);
  const auto prcl = PrclSchemes();
  ASSERT_EQ(prcl.size(), 1u);
  EXPECT_EQ(prcl[0].bounds().min_age, 5 * kUsPerSec);
}

TEST(ReportTest, NormalizeBasics) {
  ExperimentResult base;
  base.runtime_s = 100;
  base.avg_rss_bytes = 1000;
  ExperimentResult run;
  run.runtime_s = 80;        // 25 % faster
  run.avg_rss_bytes = 2000;  // half the efficiency
  const NormalizedResult n = Normalize(run, base);
  EXPECT_DOUBLE_EQ(n.performance, 1.25);
  EXPECT_DOUBLE_EQ(n.memory_efficiency, 0.5);
}

}  // namespace
}  // namespace daos::analysis
