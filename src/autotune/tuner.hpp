// The Auto-tuning Runtime (paper §3.5).
//
// Given a base scheme, a workload trial runner, and a sample budget, the
// tuner:
//   1. takes the sample budget nr_samples (the paper derives it from a
//      time limit and the time of one trial; its evaluation fixes it to
//      10),
//   2. spends 60 % of it on uniformly random aggressiveness values (global
//      exploration) and 40 % near the best observed value (local search),
//   3. fits a degree-(nr_samples/3) polynomial to the (aggressiveness,
//      score) samples,
//   4. finds the highest peak of the fitted curve via gradients and emits
//      the scheme tuned to that aggressiveness.
//
// Aggressiveness here is the scheme's `min_age` threshold, as in the
// paper's evaluation: smaller min_age == more aggressive PAGEOUT.
#pragma once

#include <functional>
#include <vector>

#include "autotune/polyfit.hpp"
#include "autotune/score.hpp"
#include "damos/scheme.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_buffer.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace daos::autotune {

/// Runs the workload once under `scheme` and reports runtime and RSS — in
/// the paper, launching the workload and reading procfs; here, a simulated
/// trial. Passing a disabled scheme measures the baseline.
using TrialRunner =
    std::function<TrialMeasurement(const damos::Scheme* scheme_or_null)>;

struct TunerConfig {
  /// Sample budget (at least 2 are taken); the paper's evaluation fixes it
  /// to 10.
  std::size_t nr_samples = 10;
  /// Search space for the min_age aggressiveness knob.
  SimTimeUs min_age_lo = 0;
  SimTimeUs min_age_hi = 60 * kUsPerSec;
  std::uint64_t seed = 1234;
};

struct TunerSample {
  SimTimeUs min_age = 0;
  double score = 0.0;
  bool exploration = false;  // true for the global-60% phase
  bool failed = false;       // trial never measured (watchdog kill etc.);
                             // recorded for accounting, excluded from the
                             // fit and from best-sample selection
};

struct TunerResult {
  damos::Scheme tuned;             // base scheme with the winning min_age
  SimTimeUs best_min_age = 0;
  double predicted_score = 0.0;
  std::vector<TunerSample> samples;
  Polynomial estimate;             // the fitted curve (Figure 5's line)
  TrialMeasurement baseline;
  /// Trials (baseline included) whose measurement came back failed.
  int failed_trials = 0;
};

class AutoTuner {
 public:
  explicit AutoTuner(TunerConfig config);

  /// Tunes `base`'s min_age against `runner`.
  TunerResult Tune(const damos::Scheme& base, const TrialRunner& runner);

  /// Publishes per-step tuning progress: "<prefix>.steps" counter,
  /// "<prefix>.last_score" / "<prefix>.last_min_age_us" gauges after every
  /// sample trial, "<prefix>.best_min_age_us" / "<prefix>.predicted_score"
  /// when Tune() concludes, and a kTuneStep tracepoint per trial when
  /// `trace` is non-null.
  void BindTelemetry(telemetry::MetricsRegistry& registry,
                     telemetry::TraceBuffer* trace = nullptr,
                     std::string_view prefix = "autotune");

 private:
  TunerConfig config_;
  ScoreFunction score_;
  Rng rng_;
  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::TraceBuffer* trace_ = nullptr;
  std::string prefix_ = "autotune";
};

}  // namespace daos::autotune
