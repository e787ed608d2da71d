#include "autotune/score.hpp"

#include <algorithm>

namespace daos::autotune {

double RawScore(const TrialMeasurement& trial, const TrialMeasurement& baseline,
                double perf_weight, double mem_weight) {
  // Listing 2: pscore = -(runtime/orig_runtime - 1); mscore likewise on RSS.
  const double pscore =
      baseline.runtime_s > 0 ? -(trial.runtime_s / baseline.runtime_s - 1.0)
                             : 0.0;
  const double mscore =
      baseline.rss_bytes > 0 ? -(trial.rss_bytes / baseline.rss_bytes - 1.0)
                             : 0.0;
  return 100.0 * (perf_weight * pscore + mem_weight * mscore);
}

double ScoreFunction::Score(const TrialMeasurement& trial,
                            const TrialMeasurement& baseline) {
  const double pscore =
      baseline.runtime_s > 0 ? -(trial.runtime_s / baseline.runtime_s - 1.0)
                             : 0.0;
  if (pscore > -kSlaMaxPerfDrop) {
    const double score = RawScore(trial, baseline);
    prev_scores_.push_back(score);
    return score;
  }
  // SLA violated: "the worst score ever calculated is returned".
  if (prev_scores_.empty()) return -100.0 * kSlaMaxPerfDrop;
  return *std::min_element(prev_scores_.begin(), prev_scores_.end());
}

}  // namespace daos::autotune
