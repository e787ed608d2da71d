// Figure 5: the trend estimation for parsec3/raytrace — a dense measured
// score curve, the tuner's 10 samples (60 % global + 40 % local), and the
// fitted polynomial curve whose highest peak picks the tuned min_age.
#include <cstdio>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/runner.hpp"
#include "autotune/tuner.hpp"
#include "bench/common.hpp"

int main() {
  using namespace daos;
  bench::PrintHeader("Figure 5", "trend estimation for parsec3/raytrace");

  const workload::WorkloadProfile profile =
      bench::CapSize(*workload::FindProfile("parsec3/raytrace"));
  analysis::ExperimentOptions opt = bench::DefaultOptions();
  opt.apply_runtime_noise = true;  // the figure's point is fitting noise

  // Measured line: second-granularity in full mode, 5 s steps otherwise.
  // Every point is an independent run — submit baseline + all points as
  // one ParallelRunner grid (the tuner below stays sequential: each of its
  // trials depends on the previous sample).
  const int step = bench::FullMode() ? 1 : 5;
  analysis::ParallelRunner runner;
  std::vector<analysis::RunSpec> specs;
  {
    analysis::RunSpec base;
    base.profile = profile;
    base.options = opt;
    specs.push_back(base);
  }
  std::vector<int> points;
  for (int s = 0; s <= 60; s += step) {
    points.push_back(s);
    analysis::RunSpec spec;
    spec.profile = profile;
    spec.config = analysis::Config::kSchemes;
    spec.options = opt;
    spec.options.seed = 1000 + s;  // fresh noise per measurement point
    spec.schemes =
        std::vector<damos::Scheme>{damos::Scheme::Prcl(s * kUsPerSec)};
    specs.push_back(spec);
  }
  const auto measured = runner.Run(specs);
  const autotune::TrialMeasurement baseline{measured[0].runtime_s,
                                            measured[0].avg_rss_bytes};
  std::printf("%-10s %10s\n", "min_age", "measured");
  std::vector<double> xs, ys;
  autotune::ScoreFunction measured_score;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& r = measured[i + 1];
    const double score =
        measured_score.Score({r.runtime_s, r.avg_rss_bytes}, baseline);
    std::printf("%9ds %10.2f\n", points[i], score);
    xs.push_back(points[i]);
    ys.push_back(score);
  }

  // The tuner with the paper's 10-sample budget.
  autotune::TunerConfig cfg;
  cfg.nr_samples = 10;
  cfg.min_age_lo = 0;
  cfg.min_age_hi = 60 * kUsPerSec;
  cfg.seed = 77;
  opt.seed = 42;
  autotune::AutoTuner tuner(cfg);
  const autotune::TunerResult result = tuner.Tune(
      damos::Scheme::Prcl(), analysis::WorkloadTrial(profile, opt));

  std::printf("\nsamples (60%% global exploration, 40%% local refinement):\n");
  for (const autotune::TunerSample& s : result.samples) {
    std::printf("  min_age=%5.1fs score=%7.2f  [%s]\n",
                static_cast<double>(s.min_age) / kUsPerSec, s.score,
                s.exploration ? "60% global" : "40% local");
  }

  std::printf("\nestimated curve (degree %zu polynomial):\n",
              result.estimate.Degree());
  std::printf("%-10s %10s\n", "min_age", "estimated");
  for (int s = 0; s <= 60; s += step) {
    std::printf("%9ds %10.2f\n", s,
                result.estimate.Valid()
                    ? result.estimate.Evaluate(static_cast<double>(s))
                    : 0.0);
  }
  std::printf("\ntuned min_age = %.1f s (predicted score %.2f)\n",
              static_cast<double>(result.best_min_age) / kUsPerSec,
              result.predicted_score);
  return 0;
}
