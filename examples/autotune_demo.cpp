// Auto-tuning a memory management scheme (paper §3.5 / §4.3).
//
// Give the runtime a base scheme, a workload, and a sample budget; it
// explores the aggressiveness space (60 % globally random, 40 % near the
// best point), fits a polynomial to the noisy scores, and applies the
// scheme at the curve's highest peak.
//
// Build & run:  ./build/examples/autotune_demo
#include <cstdio>

#include "analysis/experiment.hpp"
#include "autotune/tuner.hpp"
#include "util/units.hpp"
#include "workload/profile.hpp"

int main() {
  using namespace daos;

  workload::WorkloadProfile profile =
      *workload::FindProfile("parsec3/raytrace");
  profile.data_bytes = 512 * MiB;  // example-sized
  profile.runtime_s = 40;
  for (workload::GroupSpec& g : profile.groups)
    if (g.period_s > 0) g.period_s *= 40.0 / 140.0;

  analysis::ExperimentOptions opt;
  std::printf("workload: %s, tuning the prcl scheme's min_age in [0, 20s]\n\n",
              profile.name.c_str());

  const autotune::TrialRunner trial = analysis::WorkloadTrial(profile, opt);

  autotune::TunerConfig cfg;
  cfg.nr_samples = 10;          // the paper's evaluation budget
  cfg.min_age_lo = 0;
  cfg.min_age_hi = 20 * kUsPerSec;
  cfg.seed = 7;
  autotune::AutoTuner tuner(cfg);
  const autotune::TunerResult result =
      tuner.Tune(damos::Scheme::Prcl(), trial);

  std::printf("baseline: runtime %.2fs, RSS %s\n\n", result.baseline.runtime_s,
              FormatSize(static_cast<std::uint64_t>(
                             result.baseline.rss_bytes))
                  .c_str());
  std::printf("%-12s %-10s %s\n", "min_age", "score", "phase");
  for (const autotune::TunerSample& s : result.samples) {
    std::printf("%10.1fs %10.2f %s\n",
                static_cast<double>(s.min_age) / kUsPerSec, s.score,
                s.exploration ? "global exploration" : "local refinement");
  }
  std::printf("\ntuned scheme: %s\n", result.tuned.ToText().c_str());
  std::printf("predicted score at the fitted peak: %.2f\n",
              result.predicted_score);

  const autotune::TrialMeasurement final_run = trial(&result.tuned);
  std::printf("verification run: runtime %.2fs (%.1f%% vs baseline), RSS %s "
              "(%.1f%% saved)\n",
              final_run.runtime_s,
              100.0 * (final_run.runtime_s / result.baseline.runtime_s - 1.0),
              FormatSize(static_cast<std::uint64_t>(final_run.rss_bytes))
                  .c_str(),
              100.0 * (1.0 - final_run.rss_bytes / result.baseline.rss_bytes));
  return 0;
}
