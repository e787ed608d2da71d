// Normalized-metric helpers shared by the figure benches: the paper reports
// everything relative to the `baseline` configuration (Figures 7 and 8).
#pragma once

#include <string>

#include "analysis/experiment.hpp"

namespace daos::analysis {

struct NormalizedResult {
  /// baseline_runtime / runtime: > 1 means faster than baseline.
  double performance = 1.0;
  /// baseline_rss / rss: > 1 means smaller footprint than baseline.
  double memory_efficiency = 1.0;
  /// Equal-weight score in percentage points (Listing 2 without SLA state).
  double score = 0.0;
};

NormalizedResult Normalize(const ExperimentResult& run,
                           const ExperimentResult& baseline);

}  // namespace daos::analysis
