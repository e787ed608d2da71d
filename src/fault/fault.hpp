// Deterministic fault-injection plane.
//
// Production DAOS runs where swap devices fill up, page allocations fail,
// THP collapses race with reclaim, and tuning trials misbehave; upstream
// DAMON grew DAMOS quotas and watermark deactivation for exactly these
// reasons. The reproduction needs those degradation paths to *exist* and to
// be *testable*, so this module provides named fault points
// ("swap.write_error", "thp.collapse_fail", ...) that the sim, DAMOS, and
// autotune layers consult at their failure-prone operations.
//
// Determinism is the design constraint: each fault point draws from its own
// RNG stream derived from (plane seed, point name), so a given seed replays
// the exact same fault schedule no matter how other subsystems consume
// randomness, and arming one point never perturbs another. With no points
// armed, a check is a single predicted branch and no RNG draw — simulation
// results are bit-identical to a build without the plane.
//
// Triggers (combinable per point; any firing trigger injects the fault):
//   p=<prob>    fire each check with probability <prob>
//   every=<N>   fire on every Nth check (N >= 1)
//   once=<N>    fire exactly once, on the Nth check (1-based)
//
// The same grammar drives the dbgfs "/fault" control file (dbgfs MountFault),
// kernel fault-injection style:  "swap.write_error p=0.2 every=100".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace daos::fault {

// Well-known fault point names. Points are created on demand, so arbitrary
// names work too; these are the ones the stack actually consults.
inline constexpr std::string_view kSwapWriteError = "swap.write_error";
inline constexpr std::string_view kSwapSlotExhausted = "swap.slot_exhausted";
inline constexpr std::string_view kAllocFrameFail = "alloc.frame_fail";
inline constexpr std::string_view kThpCollapseFail = "thp.collapse_fail";
inline constexpr std::string_view kTierMigrateFail = "tier.migrate_fail";
inline constexpr std::string_view kDaemonOverrun = "daemon.overrun";
inline constexpr std::string_view kDaemonCrash = "daemon.crash";
inline constexpr std::string_view kTrialHang = "trial.hang";
// Fleet rollout controller points (src/fleet). Checked on the controller's
// serial path against each shard's own thread-confined plane, so `once=`
// means "once per shard" and a given seed replays the same fleet schedule
// at any DAOS_JOBS.
inline constexpr std::string_view kFleetShardCrash = "fleet.shard_crash";
inline constexpr std::string_view kFleetRollbackFail = "fleet.rollback_fail";
inline constexpr std::string_view kFleetTelemetryLoss = "fleet.telemetry_loss";

/// Every fault point the stack actually consults, in a fixed order. The
/// chaos campaign generator (src/chaos) draws over this catalog; keep it in
/// sync with the constants above when a new point is wired in.
const std::vector<std::string_view>& WellKnownPoints();

/// Trigger configuration of one fault point. A point is armed when any
/// trigger is set; triggers combine (any firing one injects the fault).
struct FaultSpec {
  double probability = 0.0;     // [0, 1]: fire each check with this chance
  std::uint64_t every_nth = 0;  // fire when the check ordinal is a multiple
  std::uint64_t once_at = 0;    // fire exactly once, on this check (1-based)

  bool armed() const noexcept {
    return probability > 0.0 || every_nth > 0 || once_at > 0;
  }
};

/// Applies one trigger clause, already split at its '=' into `key` and
/// `value` (p=<prob>, every=<N> or once=<N>), to `spec`. On a bad value or
/// an unknown key returns false and sets `error` (when non-null) to the
/// message without a line prefix. FaultPlane::Configure and the chaos
/// campaign grammar (src/chaos) both parse triggers through this.
bool ParseTrigger(std::string_view key, std::string_view value,
                  FaultSpec* spec, std::string* error);

/// Writes `spec` as its trigger clauses ("p=0.2 every=100"), or "off" when
/// no trigger is armed.
void FormatSpec(std::ostream& out, const FaultSpec& spec);

/// One named fault point. Handles are stable for the plane's lifetime, so
/// hot paths resolve a point once and call Check() per operation — a single
/// branch while disarmed.
class FaultPoint {
 public:
  /// Consults the point at a failure-prone operation. Returns true when the
  /// fault fires (the operation must fail). Counts the check either way.
  bool Check() noexcept {
    if (!armed_) return false;
    return Roll();
  }

  const std::string& name() const noexcept { return name_; }
  const FaultSpec& spec() const noexcept { return spec_; }
  bool armed() const noexcept { return armed_; }
  /// Checks observed since the point was last (re)armed or reseeded.
  std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  /// Faults injected since the point was last (re)armed or reseeded.
  std::uint64_t fires() const noexcept {
    return fires_.load(std::memory_order_relaxed);
  }
  /// Checks observed over the point's whole lifetime — unlike hits(), never
  /// reset by re-arming. Chaos oracles audit these across arm/disarm
  /// windows.
  std::uint64_t cumulative_hits() const noexcept {
    return cum_hits_.load(std::memory_order_relaxed);
  }
  /// Faults injected over the point's whole lifetime (never reset).
  std::uint64_t cumulative_fires() const noexcept {
    return cum_fires_.load(std::memory_order_relaxed);
  }
  /// Checks that did NOT inject over the lifetime.
  std::uint64_t cumulative_suppressed() const noexcept {
    return cumulative_hits() - cumulative_fires();
  }

  /// Installs `spec` and restarts the schedule (ordinals and the RNG stream
  /// rewind, so arming is reproducible regardless of prior checks).
  void Arm(const FaultSpec& spec);
  void Disarm();

 private:
  friend class FaultPlane;
  FaultPoint(std::string name, std::uint64_t plane_seed);

  bool Roll() noexcept;
  void ResetSchedule();
  static std::uint64_t StreamSeed(std::string_view name,
                                  std::uint64_t plane_seed);

  std::string name_;
  std::uint64_t plane_seed_;
  bool armed_ = false;
  FaultSpec spec_;
  Rng rng_;
  // Check ordinals are claimed with one atomic increment: `once=`/`every=`
  // decisions are a pure function of the claimed ordinal, so they stay
  // exact even if a plane is shared across parallel-runner workers (the
  // old plain counter could hand the once_at ordinal to two racing
  // threads — double fire — or skip past it — no fire). `p=` draws and
  // (re)arming still require thread confinement: the RNG stream is not
  // synchronized, by design — one plane per worker/shard is the supported
  // shape, and there `once=` means once per plane.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> fires_{0};
  // Lifetime totals: survive Arm()/Disarm()/Reseed() so windowed chaos
  // campaigns can audit how much actually landed.
  std::atomic<std::uint64_t> cum_hits_{0};
  std::atomic<std::uint64_t> cum_fires_{0};
  telemetry::Counter* fires_counter_ = nullptr;  // null until telemetry bound
};

/// True when `point` is non-null and its check fires. Call-site helper for
/// layers holding optional handles (null plane == faults compiled out).
inline bool Fires(FaultPoint* point) noexcept {
  return point != nullptr && point->Check();
}

/// The set of fault points of one simulated machine/runtime, plus the text
/// control surface the dbgfs "/fault" file exposes.
class FaultPlane {
 public:
  explicit FaultPlane(std::uint64_t seed = 0xfa'017'fa'017ULL);

  /// Stable handle for `name`, creating the (disarmed) point on first use.
  FaultPoint& Point(std::string_view name);
  /// Existing point or nullptr; never creates.
  FaultPoint* Find(std::string_view name);
  const FaultPoint* Find(std::string_view name) const;

  void Arm(std::string_view name, const FaultSpec& spec) {
    Point(name).Arm(spec);
  }
  void DisarmAll();

  /// Re-derives every point's RNG stream from `seed` and rewinds all
  /// schedules: two planes with equal seeds and specs inject identically.
  void Reseed(std::uint64_t seed);
  std::uint64_t seed() const noexcept { return seed_; }

  /// Applies a text configuration (the "/fault" write format): one
  /// directive per line ('\n' or ';' separated, '#' comments), each either
  ///   <point> <trigger>...   with triggers p=<prob> every=<N> once=<N>
  ///   <point> off
  ///   seed <u64>
  ///   reset
  /// All-or-nothing: on any parse error nothing is applied and `error`
  /// (when non-null) gets a line-numbered message.
  bool Configure(std::string_view text, std::string* error = nullptr);

  /// One line per point:
  ///   "<name> <trigger-spec|off> hits=<n> fires=<n> fired=<n> suppressed=<n>"
  /// where hits/fires count since the last (re)arm and fired/suppressed are
  /// lifetime cumulative (never reset), so "/fault" reads audit how much
  /// chaos actually landed across arm/disarm windows.
  std::string StatusText() const;

  /// Publishes "<prefix>.<point>.fires" counters for every current and
  /// future point. The registry must outlive the plane's checks.
  void BindTelemetry(telemetry::MetricsRegistry& registry,
                     std::string_view prefix = "fault");

  std::vector<std::string> Names() const;

  /// Builds a plane from the DAOS_FAULTS (spec text) and DAOS_FAULT_SEED
  /// environment variables; returns nullptr when DAOS_FAULTS is unset or
  /// either variable is invalid (rejections are reported on stderr, never
  /// fatal). A malformed DAOS_FAULT_SEED rejects the whole plane rather
  /// than silently running a different schedule than the one named in a
  /// repro line. This is how CI stress jobs arm faults under unmodified
  /// binaries.
  static std::unique_ptr<FaultPlane> FromEnv();

 private:
  void BindPoint(FaultPoint& point);

  std::uint64_t seed_;
  // unique_ptr keeps FaultPoint handles stable across map growth.
  std::map<std::string, std::unique_ptr<FaultPoint>, std::less<>> points_;
  telemetry::MetricsRegistry* registry_ = nullptr;
  std::string prefix_;
};

}  // namespace daos::fault
