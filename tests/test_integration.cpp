// End-to-end scenarios asserting the paper's headline behaviours on real
// (but time-scaled) workload profiles — the repo's kselftest equivalent.
#include <gtest/gtest.h>

#include "analysis/experiment.hpp"
#include "analysis/report.hpp"
#include "analysis/runner.hpp"
#include "autotune/tuner.hpp"
#include "damon/recorder.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"
#include "workload/serverless.hpp"

#include "damon/monitor.hpp"
#include "damos/engine.hpp"
#include "sim/system.hpp"

namespace daos {
namespace {

/// Shrinks a real profile so an end-to-end run stays test-sized: runtime
/// and warm periods scaled by `time_scale`, data by `size_scale`.
workload::WorkloadProfile Shrink(const workload::WorkloadProfile& p,
                                 double time_scale, double size_scale) {
  workload::WorkloadProfile out = p;
  out.runtime_s *= time_scale;
  out.data_bytes = AlignUp(
      static_cast<std::uint64_t>(static_cast<double>(p.data_bytes) *
                                 size_scale),
      kHugePageSize * 8);
  out.noise = 0.0;
  for (workload::GroupSpec& g : out.groups) {
    if (g.period_s > 0) g.period_s *= time_scale;
  }
  return out;
}

analysis::ExperimentOptions TestOptions() {
  analysis::ExperimentOptions opt;
  opt.max_time = 300 * kUsPerSec;
  opt.apply_runtime_noise = false;
  return opt;
}

TEST(PaperShape, FreqminePrclBestCase) {
  // §4.2: "parsec3/freqmine achieves 91 % memory saving with only a 0.9 %
  // slowdown" — our shape target: >70 % saving, <3 % slowdown.
  const workload::WorkloadProfile p =
      Shrink(*workload::FindProfile("parsec3/freqmine"), 0.15, 0.5);
  const auto base =
      analysis::RunWorkload(p, analysis::Config::kBaseline, TestOptions());
  const auto schemes = analysis::PrclSchemes(3 * kUsPerSec);
  const auto prcl = analysis::RunWorkload(p, analysis::Config::kSchemes,
                                          TestOptions(), &schemes);
  const auto n = analysis::Normalize(prcl, base);
  EXPECT_GT(n.memory_efficiency, 2.0);  // > 50 % saving
  EXPECT_GT(n.performance, 0.97);
}

TEST(PaperShape, OceanNcpThpBestCase) {
  // §4.2: THP gives ocean_ncp its biggest speedup and biggest bloat.
  const workload::WorkloadProfile p =
      Shrink(*workload::FindProfile("splash2x/ocean_ncp"), 0.15, 0.04);
  const auto base =
      analysis::RunWorkload(p, analysis::Config::kBaseline, TestOptions());
  const auto thp =
      analysis::RunWorkload(p, analysis::Config::kThp, TestOptions());
  const auto n = analysis::Normalize(thp, base);
  EXPECT_GT(n.performance, 1.05);
  EXPECT_LT(n.memory_efficiency, 0.85);
}

TEST(PaperShape, EthpRemovesBloatKeepsSomeGain) {
  // §4.2: ethp "reduces 80 % of memory overhead while preserving 46 % of
  // the performance improvement" (best case) — shape: most bloat gone,
  // some gain kept.
  const workload::WorkloadProfile p =
      Shrink(*workload::FindProfile("splash2x/ocean_ncp"), 0.15, 0.04);
  // The three configs are independent: submit them as one grid.
  std::vector<analysis::RunSpec> specs(3);
  specs[0].config = analysis::Config::kBaseline;
  specs[1].config = analysis::Config::kThp;
  specs[2].config = analysis::Config::kEthp;
  for (analysis::RunSpec& spec : specs) {
    spec.profile = p;
    spec.options = TestOptions();
  }
  const auto results = analysis::ParallelRunner().Run(specs);
  const auto& base = results[0];
  const auto nthp = analysis::Normalize(results[1], base);
  const auto nethp = analysis::Normalize(results[2], base);

  const double thp_bloat = 1.0 / nthp.memory_efficiency - 1.0;
  const double ethp_bloat =
      std::max(0.0, 1.0 / nethp.memory_efficiency - 1.0);
  EXPECT_LT(ethp_bloat, 0.5 * thp_bloat + 0.01);  // removes most bloat
  EXPECT_GT(nethp.performance, 1.0);              // keeps some speedup
}

TEST(PaperShape, DensePrclWorstCaseSlowsDown) {
  // §4.2: prcl hurts dense, sweep-heavy workloads (ocean_ncp: -78 %).
  const workload::WorkloadProfile p =
      Shrink(*workload::FindProfile("splash2x/radix"), 0.3, 0.05);
  const auto base =
      analysis::RunWorkload(p, analysis::Config::kBaseline, TestOptions());
  const auto schemes = analysis::PrclSchemes(1 * kUsPerSec);  // aggressive
  const auto prcl = analysis::RunWorkload(p, analysis::Config::kSchemes,
                                          TestOptions(), &schemes);
  const auto n = analysis::Normalize(prcl, base);
  EXPECT_LT(n.performance, 0.97);  // visible slowdown from refaults
}

TEST(PaperShape, MonitorAccuracyShowsHotRegion) {
  // Conclusion-2: the monitor identifies hot regions. Record canneal's
  // pattern and check the hot head dominates the snapshots.
  const workload::WorkloadProfile p =
      Shrink(*workload::FindProfile("parsec3/canneal"), 0.1, 0.2);
  damon::Recorder recorder;
  const auto rec = analysis::RunWorkload(p, analysis::Config::kRec,
                                         TestOptions(), nullptr, &recorder);
  ASSERT_TRUE(rec.finished);
  ASSERT_GT(recorder.snapshots().size(), 5u);

  // Accumulate access weight in the hot head (group 0) vs the cold tail.
  const Addr heap = workload::SyntheticSource::kHeapBase;
  const Addr hot_end = heap + p.data_bytes / 16;  // canneal hot = 6 %
  double hot_w = 0, cold_w = 0;
  for (const damon::Snapshot& snap : recorder.snapshots()) {
    for (const damon::SnapshotRegion& r : snap.regions) {
      if (r.end <= heap || r.start >= heap + p.data_bytes) continue;
      const double density =
          static_cast<double>(r.nr_accesses) /
          (static_cast<double>(r.end - r.start) / MiB + 1.0);
      if (r.start < hot_end) {
        hot_w += density;
      } else {
        cold_w += density;
      }
    }
  }
  EXPECT_GT(hot_w, cold_w);
}

TEST(PaperShape, AutotuneBeatsBadManualScheme) {
  // §4.3: auto-tuning removes most of the manual scheme's slowdown while
  // keeping a sizeable share of its savings. Use a workload whose warm set
  // re-references every 2 s over slow file swap, so over-aggressive
  // reclamation (min_age=0) thrashes badly.
  workload::WorkloadProfile p;
  p.name = "test/thrasher";
  p.suite = "test";
  p.data_bytes = 192 * MiB;
  p.runtime_s = 20;
  p.noise = 0.0;
  p.mem_boundness = 1.0;
  p.groups = {
      workload::GroupSpec{0.15, 0.0, 1.0, 0.3},   // hot
      workload::GroupSpec{0.25, 2.0, 1.0, 0.3},   // warm sweep, 2 s period
      workload::GroupSpec{0.60, -1.0, 0.9, 0.2},  // cold: the real win
  };
  p.zipf_touches_per_s = 8000;
  analysis::ExperimentOptions opt = TestOptions();
  // Slow file swap: aggressively reclaiming the warm sweep violates the
  // 10 % SLA, while cold-only reclaim at high min_age is nearly free — the
  // sweet spot the tuner must find.
  opt.swap = sim::SwapConfig::File();

  const autotune::TrialRunner trial = analysis::WorkloadTrial(p, opt);

  autotune::TunerConfig cfg;
  cfg.nr_samples = 10;
  cfg.min_age_lo = 0;
  cfg.min_age_hi = 24 * kUsPerSec;  // spans past the (scaled) runtime, as Fig. 4
  cfg.seed = 5;
  autotune::AutoTuner tuner(cfg);
  const autotune::TunerResult result =
      tuner.Tune(damos::Scheme::Prcl(), trial);

  // Compare an over-aggressive manual scheme (min_age=0) with the tuned
  // one, under the paper's own SLA-aware score function (Listing 2).
  damos::Scheme manual = damos::Scheme::Prcl(0);
  const autotune::TrialMeasurement& baseline = result.baseline;
  const autotune::TrialMeasurement manual_m = trial(&manual);
  const autotune::TrialMeasurement tuned_m = trial(&result.tuned);
  autotune::ScoreFunction manual_fn, tuned_fn;
  const double manual_score = manual_fn.Score(manual_m, baseline);
  const double tuned_score = tuned_fn.Score(tuned_m, baseline);
  EXPECT_GT(tuned_score, manual_score);
  // The manual scheme breaks the SLA; the tuned one must not (by much).
  EXPECT_GT(manual_m.runtime_s / baseline.runtime_s, 1.10);
  EXPECT_LT(tuned_m.runtime_s / baseline.runtime_s, 1.15);
}

TEST(PaperShape, ServerlessTrimFigure9) {
  // §4.4: pageout(30 s) trims the serverless fleet's RSS by ~80-90 %.
  // Scaled: 2 servers x 128 MiB, pageout(2 s), zram.
  workload::ServerlessConfig config;
  config.nr_processes = 2;
  config.rss_per_process = 128 * MiB;
  config.working_set_frac = 0.10;
  config.cold_touch_period_s = 1000;  // effectively never

  sim::System system(sim::MachineSpec{"prod", 16, 3.0, 8 * GiB},
                     sim::SwapConfig::Zram(2 * GiB), sim::ThpMode::kNever,
                     5 * kUsPerMs);
  std::vector<sim::Process*> servers;
  for (int i = 0; i < config.nr_processes; ++i) {
    servers.push_back(&system.AddProcess(
        workload::ServerParams(config, i),
        std::make_unique<workload::ServerSource>(config, 11 + i)));
  }
  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults());
  for (sim::Process* server : servers) {
    ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&server->space()));
  }
  damos::SchemesEngine engine({damos::Scheme::Prcl(2 * kUsPerSec)});
  engine.Attach(ctx);
  system.RegisterDaemon(
      [&ctx](SimTimeUs now, SimTimeUs q) { return ctx.Step(now, q); });

  system.Run(20 * kUsPerSec);
  for (sim::Process* server : servers) {
    const double trimmed =
        1.0 - static_cast<double>(server->ReadRssBytes()) /
                  static_cast<double>(config.rss_per_process);
    EXPECT_GT(trimmed, 0.6);   // most of the bloat is gone
    EXPECT_LT(trimmed, 0.95);  // the working set survives
  }
}

TEST(PaperShape, MonitorOverheadIndependentOfTargetSize) {
  // Conclusion-3: rec (one process) vs prec (whole guest) show similar
  // overhead because the region cap bounds the work.
  const workload::WorkloadProfile p =
      Shrink(*workload::FindProfile("parsec3/blackscholes"), 0.15, 0.25);
  std::vector<analysis::RunSpec> specs(2);
  specs[0].config = analysis::Config::kRec;
  specs[1].config = analysis::Config::kPrec;
  for (analysis::RunSpec& spec : specs) {
    spec.profile = p;
    spec.options = TestOptions();
  }
  const auto results = analysis::ParallelRunner().Run(specs);
  const auto& rec = results[0];
  const auto& prec = results[1];
  EXPECT_LT(prec.monitor_cpu_fraction, 3.0 * rec.monitor_cpu_fraction + 0.01);
}

}  // namespace
}  // namespace daos
