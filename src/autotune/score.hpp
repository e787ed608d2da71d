// Score functions: unify performance and memory efficiency into the single
// objective the auto-tuner maximizes (paper §3.3, Listing 2).
//
// Scores are expressed in percentage points (so "10" means a combined 10 %
// improvement), matching the y-axes of Figures 4 and 5.
#pragma once

#include <vector>

namespace daos::autotune {

/// One measured trial of a scheme applied to a workload.
struct TrialMeasurement {
  double runtime_s = 0.0;
  double rss_bytes = 0.0;
  /// The trial never produced a usable measurement (e.g. the workload hung
  /// past the runtime's watchdog deadline, even after retries).
  bool failed = false;
};

// Listing 2's constants: equal weights, and an SLA of at most a 10 %
// performance drop.
inline constexpr double kPerfWeight = 0.5;
inline constexpr double kMemWeight = 0.5;
inline constexpr double kSlaMaxPerfDrop = 0.10;

/// The paper's Listing 2 score function, verbatim. It is stateful: an SLA
/// violation returns the worst score seen since the last Reset().
class ScoreFunction {
 public:
  double Score(const TrialMeasurement& trial,
               const TrialMeasurement& baseline);
  void Reset() { prev_scores_.clear(); }

 private:
  std::vector<double> prev_scores_;
};

/// Stateless scoring helper used by analysis code (no SLA floor state):
/// 100 * (w_p * perf_improvement + w_m * memory_saving).
double RawScore(const TrialMeasurement& trial, const TrialMeasurement& baseline,
                double perf_weight = kPerfWeight,
                double mem_weight = kMemWeight);

}  // namespace daos::autotune
