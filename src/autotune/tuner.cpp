#include "autotune/tuner.hpp"

#include <algorithm>
#include <cmath>

namespace daos::autotune {

/// Fraction of samples spent exploring globally (paper: 60/40).
constexpr double kExploreFrac = 0.6;

AutoTuner::AutoTuner(TunerConfig config)
    : config_(config), rng_(config.seed) {}

void AutoTuner::BindTelemetry(telemetry::MetricsRegistry& registry,
                              telemetry::TraceBuffer* trace,
                              std::string_view prefix) {
  registry_ = &registry;
  trace_ = trace;
  prefix_ = std::string(prefix);
}

TunerResult AutoTuner::Tune(const damos::Scheme& base,
                            const TrialRunner& runner) {
  TunerResult result;
  result.tuned = base;
  score_.Reset();

  // The fit's x-axis is in seconds, O(1..100) for typical ranges, which
  // keeps the polynomial fit well conditioned.
  const SimTimeUs age_lo = config_.min_age_lo;
  const SimTimeUs age_hi = config_.min_age_hi;
  constexpr double age_unit = static_cast<double>(kUsPerSec);

  // Baseline: the workload without any scheme.
  result.baseline = runner(nullptr);
  if (result.baseline.failed) ++result.failed_trials;

  const std::size_t total = std::max<std::size_t>(2, config_.nr_samples);
  const auto explore = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::round(kExploreFrac * static_cast<double>(total))));
  const std::size_t exploit = total - explore;

  auto run_one = [&](SimTimeUs min_age, bool exploration) {
    damos::Scheme candidate = base;
    candidate.bounds().min_age = min_age;
    const TrialMeasurement m = runner(&candidate);
    if (m.failed) {
      // The trial never produced a measurement. Record it (so the sample
      // budget accounting stays honest) but keep it out of the score
      // function — a watchdog-killed run must not poison the SLA state —
      // and out of the fit/best-sample selection below.
      ++result.failed_trials;
      result.samples.push_back(
          TunerSample{min_age, 0.0, exploration, true});
      if (registry_ != nullptr)
        registry_->GetCounter(prefix_ + ".steps").Add(1);
      return;
    }
    const double score = score_.Score(m, result.baseline);
    result.samples.push_back(TunerSample{min_age, score, exploration});
    if (registry_ != nullptr) {
      registry_->GetCounter(prefix_ + ".steps").Add(1);
      registry_->GetGauge(prefix_ + ".last_score").Set(score);
      registry_->GetGauge(prefix_ + ".last_min_age_us")
          .Set(static_cast<double>(min_age));
    }
    if (trace_ != nullptr) {
      // kTuneStep: id=1 for exploration / 0 for local search,
      // arg0=min_age µs, arg1=score in
      // micro-units (two's complement).
      trace_->Push({0, telemetry::EventKind::kTuneStep,
                    exploration ? 1u : 0u, min_age,
                    static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(score * 1e6)),
                    0});
    }
  };

  // Phase 1: global random exploration of the aggressiveness space.
  for (std::size_t i = 0; i < explore; ++i) {
    run_one(rng_.NextInRange(age_lo, age_hi), true);
  }

  // Orders samples by score with failed trials below any real score, so
  // max_element lands on a failed sample only when every sample failed.
  const auto by_score = [](const TunerSample& a, const TunerSample& b) {
    if (a.failed != b.failed) return a.failed;
    return a.score < b.score;
  };

  // Phase 2: local search around the best exploration sample. If every
  // exploration trial failed there is no signal to follow — search around
  // the middle of the min_age range instead.
  auto best = std::max_element(result.samples.begin(), result.samples.end(),
                               by_score);
  const SimTimeUs center =
      !best->failed ? best->min_age : (age_lo + age_hi) / 2;
  const SimTimeUs radius =
      std::max<SimTimeUs>((age_hi - age_lo) / 10, kUsPerSec);
  for (std::size_t i = 0; i < exploit; ++i) {
    const SimTimeUs lo = center > radius ? center - radius : age_lo;
    const SimTimeUs hi = std::min(center + radius, age_hi);
    run_one(rng_.NextInRange(lo, hi), false);
  }

  // Estimation: fit a degree-(nr_samples/3) polynomial to the successful
  // samples and take the highest peak.
  std::vector<double> xs, ys;
  xs.reserve(result.samples.size());
  ys.reserve(result.samples.size());
  for (const TunerSample& s : result.samples) {
    if (s.failed) continue;
    xs.push_back(static_cast<double>(s.min_age) / age_unit);
    ys.push_back(s.score);
  }
  const std::size_t degree = std::max<std::size_t>(1, total / 3);
  if (!xs.empty()) result.estimate = FitPolynomial(xs, ys, degree);

  // The best raw sample after both phases (the local-search center moved if
  // exploitation found something better).
  best = std::max_element(result.samples.begin(), result.samples.end(),
                          by_score);
  if (best->failed) {
    // Every trial failed: nothing to tune against. Emit the base scheme
    // with a mid-range min_age and a zero prediction; the caller reads
    // failed_trials to see why.
    result.best_min_age = (age_lo + age_hi) / 2;
    result.predicted_score = 0.0;
    result.tuned.bounds().min_age = result.best_min_age;
    return result;
  }

  bool picked_from_curve = false;
  if (result.estimate.Valid()) {
    // Search peaks only inside the sampled domain: the fitted polynomial
    // has no support outside it and extrapolates unreliably.
    const double lo = *std::min_element(xs.begin(), xs.end());
    const double hi = *std::max_element(xs.begin(), xs.end());
    const auto peaks = FindPeaks(result.estimate, lo, hi);
    // Polynomials extrapolate badly near sparsely-sampled endpoints, and
    // the Listing-2 SLA fallback can make violating regions look as good
    // as the best seen score. Keep the curve's job what §3.5 intends —
    // denoising *around the best observed region* — by accepting only
    // peaks within the local-search neighbourhood of the best sample.
    const double best_x = static_cast<double>(best->min_age) / age_unit;
    const double neighbourhood =
        static_cast<double>(age_hi - age_lo) / age_unit / 4.0;
    for (const Peak& peak : peaks) {
      if (std::fabs(peak.x - best_x) > neighbourhood) continue;
      result.best_min_age = static_cast<SimTimeUs>(peak.x * age_unit);
      result.predicted_score = peak.value;
      picked_from_curve = true;
      break;
    }
  }
  if (!picked_from_curve) {
    // Degenerate fit: fall back to the best raw sample.
    result.best_min_age = best->min_age;
    result.predicted_score = best->score;
  }
  result.tuned.bounds().min_age = result.best_min_age;
  if (registry_ != nullptr) {
    registry_->GetGauge(prefix_ + ".best_min_age_us")
        .Set(static_cast<double>(result.best_min_age));
    registry_->GetGauge(prefix_ + ".predicted_score")
        .Set(result.predicted_score);
  }
  return result;
}

}  // namespace daos::autotune
