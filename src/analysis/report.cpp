#include "analysis/report.hpp"

#include "autotune/score.hpp"

namespace daos::analysis {

NormalizedResult Normalize(const ExperimentResult& run,
                           const ExperimentResult& baseline) {
  NormalizedResult out;
  if (run.runtime_s > 0.0)
    out.performance = baseline.runtime_s / run.runtime_s;
  if (run.avg_rss_bytes > 0.0)
    out.memory_efficiency = baseline.avg_rss_bytes / run.avg_rss_bytes;
  out.score = autotune::RawScore(
      autotune::TrialMeasurement{run.runtime_s, run.avg_rss_bytes},
      autotune::TrialMeasurement{baseline.runtime_s, baseline.avg_rss_bytes});
  return out;
}

}  // namespace daos::analysis
