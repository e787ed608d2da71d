// Memory management schemes (paper §3.2).
//
// A scheme is "3 conditions and an action": min/max region size, min/max
// access frequency, min/max age, plus one of the Table 1 actions. Users
// write them as a single text line (see parser.hpp); this header is the
// in-memory model plus matching logic.
#pragma once

#include <cstdint>
#include <string>

#include "damon/attrs.hpp"
#include "damon/primitives.hpp"
#include "damon/region.hpp"
#include "governor/governor.hpp"
#include "util/types.hpp"

namespace daos::damos {

/// An access-frequency bound. The paper's listings write either a percent
/// of the maximum possible access rate ("80%") or a raw per-aggregation
/// sample count ("5"); both convert to sample counts once the monitoring
/// attributes are known.
struct FreqBound {
  enum class Unit : std::uint8_t { kPercent, kSamples };
  Unit unit = Unit::kPercent;
  double value = 0.0;

  static FreqBound Percent(double fraction) {
    return FreqBound{Unit::kPercent, fraction};
  }
  static FreqBound Samples(double n) { return FreqBound{Unit::kSamples, n}; }
  static FreqBound MinValue() { return Percent(0.0); }
  static FreqBound MaxValue() { return Percent(1.0); }

  /// Converts to a per-aggregation sample count under `attrs`.
  double ToSamples(const damon::MonitoringAttrs& attrs) const {
    return unit == Unit::kPercent
               ? value * static_cast<double>(attrs.MaxChecksPerAggregation())
               : value;
  }

  bool operator==(const FreqBound&) const = default;
};

/// The seven user-provided values of a scheme.
struct SchemeBounds {
  std::uint64_t min_size = 0;
  std::uint64_t max_size = kMaxU64;
  FreqBound min_freq = FreqBound::MinValue();
  FreqBound max_freq = FreqBound::MaxValue();
  SimTimeUs min_age = 0;       // wall-clock form; compared against
  SimTimeUs max_age = kMaxU64; // region age * aggregation interval
  damon::DamosAction action = damon::DamosAction::kStat;

  /// Scheme *identity* for online reconfiguration: two schemes with equal
  /// bounds are "the same scheme" across a commit, so their stats and
  /// governor charge state carry over (only the policy knobs changed).
  bool operator==(const SchemeBounds&) const = default;
};

/// Per-scheme application statistics, as the kernel exposes for tuning.
struct SchemeStats {
  std::uint64_t nr_tried = 0;
  std::uint64_t sz_tried = 0;
  std::uint64_t nr_applied = 0;
  std::uint64_t sz_applied = 0;
  std::uint64_t nr_errors = 0;    // recoverable action failures absorbed
  std::uint64_t nr_backoffs = 0;  // times the scheme was exponentially parked
  std::uint64_t nr_skipped = 0;   // aggregation passes skipped while parked
  // Governor accounting (kernel damos_stat analogues).
  std::uint64_t qt_exceeds = 0;          // regions blocked by an empty budget
  std::uint64_t sz_quota_exceeded = 0;   // bytes those blocked regions held
  std::uint64_t nr_wmark_deactivations = 0;  // active->inactive transitions
  bool wmark_active = true;              // current watermark gate state
};

/// A scheme's mutable runtime besides its stats: the engine's failure
/// backoff and the governor's charge and gate state. It travels with the
/// scheme, so a checkpoint or a commit that copies the scheme copies all of
/// it: a kdamond rebuilt mid-window keeps the window's charges, so a crash
/// cannot launder quota. A parsed or newly constructed scheme starts cold.
struct SchemeRuntime {
  // Failure backoff (mirrors upstream DAMOS quotas: a scheme whose action
  // keeps failing must not burn its whole budget on a broken device every
  // aggregation).
  std::uint32_t backoff_exp = 0;  // consecutive error-only passes
  SimTimeUs backoff_until = 0;    // parked until then (0 = active)
  governor::QuotaState quota;
  governor::WatermarkGate wmark;
};

/// The single formatter for SchemeStats — every text surface (engine
/// StatsText, the dbgfs /schemes read) goes through it, so stat fields
/// cannot drift between views when new ones (governor counters) are added.
std::string FormatStats(const SchemeStats& stats);

class Scheme {
 public:
  Scheme() = default;
  explicit Scheme(SchemeBounds bounds) : bounds_(bounds) {}

  const SchemeBounds& bounds() const noexcept { return bounds_; }
  SchemeBounds& bounds() noexcept { return bounds_; }
  damon::DamosAction action() const noexcept { return bounds_.action; }
  const SchemeStats& stats() const noexcept { return stats_; }
  SchemeStats& stats() noexcept { return stats_; }
  /// Governor configuration (quotas / prioritization / watermarks).
  /// Default-constructed = disarmed: the engine behaves exactly as if the
  /// governor did not exist.
  const governor::GovernorPolicy& policy() const noexcept { return policy_; }
  governor::GovernorPolicy& policy() noexcept { return policy_; }
  const SchemeRuntime& runtime() const noexcept { return runtime_; }
  SchemeRuntime& runtime() noexcept { return runtime_; }

  /// Whether `region` currently fulfills the three conditions.
  bool Matches(const damon::Region& region,
               const damon::MonitoringAttrs& attrs) const;

  /// Serializes back to the one-line text form of the paper's listings.
  std::string ToText() const;

  // Convenience constructors for the paper's evaluation schemes.
  /// prcl (Listing 3 line 5): page out >=4K regions unaccessed for
  /// `min_age` or more.
  static Scheme Prcl(SimTimeUs min_age = 5 * kUsPerSec);
  /// ethp promotion half (Listing 3 line 2): regions with >=`min_samples`
  /// access samples get huge pages.
  static Scheme EthpHugepage(double min_samples = 5.0);
  /// ethp demotion half (Listing 3 line 3): >=2M regions unaccessed for
  /// >=`min_age` get demoted.
  static Scheme EthpNohugepage(SimTimeUs min_age = 7 * kUsPerSec);
  /// Working-set-size STAT scheme: counts regions accessed at all.
  static Scheme WssStat();

 private:
  SchemeBounds bounds_;
  SchemeStats stats_;
  governor::GovernorPolicy policy_;
  SchemeRuntime runtime_;
};

}  // namespace daos::damos
