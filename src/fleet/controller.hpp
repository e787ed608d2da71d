// Fleet rollout controller: canary shards, health-gated promotion,
// automatic rollback, and crash-storm quarantine.
//
// The paper's production story (§4.4) is a fleet of serverless workers
// where one misconfigured scheme can erase the ~90 % RSS-vs-WSS savings
// fleet-wide. The lifecycle supervisor (DESIGN §9) already makes a single
// shard safe — transactional commits, checkpoint/restore, crash
// containment; this module adds the fleet-level control loop that makes a
// *rollout* safe:
//
//   - N shards, each a KdamondSupervisor over its own System holding a
//     slice of the fig9 serverless population. Shards are thread-confined
//     (own fault plane, own registry, own RNG streams) and are stepped in
//     lockstep epochs through the work-stealing runner, so DAOS_JOBS=1 vs
//     =N stays bit-identical: parallelism changes when a shard steps,
//     never what it computes. All controller decisions (fault checks,
//     health rollups, promotions) run serially between epochs.
//
//   - Rollouts stage a commit bundle as canary waves: a canary fraction
//     first, then configured percentage ramps. Every stage promotion is
//     gated on fleet-telemetry health rollups — p50/p99 memory-saving
//     delta of wave vs control shards, a per-epoch monitor CPU-overhead
//     histogram, and scheme failure counters — held for `gate_epochs`
//     consecutive epochs.
//
//   - On regression the wave rolls back automatically: every wave shard is
//     restored from the checkpoint captured when it joined the wave, with
//     bounded retries ("fleet.rollback_fail" exercises the retry path). A
//     rejected or rolled-back rollout leaves every shard bit-identical to
//     its pre-wave state (tests/test_fleet.cpp pins this against a
//     never-waved golden fleet).
//
//   - Crash-storm policy: shards that crash-loop are quarantined —
//     degraded monitoring-only (schemes disarmed), excluded from waves and
//     from the health quorum — and rejoin after a quiet probation. Shard
//     restarts themselves reuse the supervisor's bounded-budget
//     exponential backoff. When the health quorum cannot be reached (e.g.
//     "fleet.telemetry_loss" storms) the rollout cannot gate, and past
//     `timeout_epochs` it aborts and rolls the wave back.
//
// State machine (DESIGN §12):
//   idle -> canary -> ramping -> promoted
//                |         \--> rolled-back   (health gate tripped)
//                \-------------> aborted      (timeout / quorum starvation)
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/runner.hpp"
#include "fault/fault.hpp"
#include "lifecycle/supervisor.hpp"
#include "sim/machine.hpp"
#include "sim/system.hpp"
#include "telemetry/metrics.hpp"
#include "util/types.hpp"
#include "util/units.hpp"
#include "workload/serverless.hpp"

namespace daos::fleet {

struct FleetConfig {
  std::size_t nr_shards = 16;
  /// Per-shard process slice: `workload.nr_processes` servers per shard,
  /// shaped by the usual §4.4 parameters.
  workload::ServerlessConfig workload;
  sim::MachineSpec machine{"fleet-shard", 8, 3.0, 4 * GiB};
  sim::SwapConfig swap = sim::SwapConfig::File(16 * GiB);
  SimTimeUs quantum = 5 * kUsPerMs;
  /// Control-loop cadence (sim time). Rounded up to a whole number of
  /// quanta so every shard clock lands exactly on the epoch boundary.
  SimTimeUs epoch = 500 * kUsPerMs;
  std::uint64_t seed = 42;
  /// Per-shard supervisor template; the monitor seed is mixed per shard.
  lifecycle::SupervisorConfig supervisor;
  /// Installed on every shard at construction (empty = monitoring-only).
  std::string initial_schemes = "min max min min 6s max pageout";
  /// Arm every shard plane from DAOS_FAULTS (reseeded per shard so storm
  /// schedules decorrelate). Tests pinning fault-free goldens set false.
  bool use_env_faults = true;
};

/// One staged rollout: the commit bundle plus wave shape and gate
/// thresholds. `bundle_text` uses the supervisor /commit grammar
/// ("attrs ..." / "scheme ..." lines).
struct RolloutSpec {
  std::string bundle_text;
  /// First-wave fraction of active shards (0, 1].
  double canary_frac = 0.125;
  /// Subsequent cumulative wave fractions, ascending; the last stage is
  /// typically 1.0 (the whole fleet).
  std::vector<double> ramp = {0.25, 0.5, 1.0};
  /// Consecutive healthy epochs required to promote each stage.
  std::uint32_t gate_epochs = 2;
  /// Whole-rollout deadline in epochs; past it the rollout aborts and the
  /// wave rolls back (quorum starvation burns this budget too).
  std::uint32_t timeout_epochs = 64;
  // Health gate thresholds (any breach trips the gate).
  /// Wave p50 memory saving may lag the control p50 by at most this much.
  double max_saving_regression = 0.05;
  /// Wave p99 per-epoch monitor CPU fraction ceiling.
  double max_cpu_overhead = 0.05;
  /// New scheme failure counters allowed per epoch across the wave.
  std::uint64_t max_scheme_errors = 0;
};

enum class RolloutState : std::uint8_t {
  kIdle,        // no rollout staged yet
  kCanary,      // first wave committed, gating
  kRamping,     // a ramp stage committed, gating
  kPromoted,    // all stages held healthy: the bundle is fleet-wide
  kRolledBack,  // the health gate tripped: wave restored to pre-wave state
  kAborted,     // timeout / quorum starvation: wave restored
};

std::string_view RolloutStateName(RolloutState state);

struct FleetCounters {
  std::uint64_t epochs = 0;
  std::uint64_t rollouts = 0;           // StartRollout accepted
  std::uint64_t stage_promotions = 0;   // ramp stages entered
  std::uint64_t promoted = 0;           // rollouts promoted fleet-wide
  std::uint64_t rolled_back = 0;        // rollouts rolled back (gate trip)
  std::uint64_t aborted = 0;            // rollouts aborted (timeout/quorum)
  std::uint64_t gate_trips = 0;
  std::uint64_t quorum_misses = 0;      // epochs without a health quorum
  std::uint64_t quarantines = 0;
  std::uint64_t releases = 0;           // shards rejoining after probation
  std::uint64_t crash_injections = 0;   // fleet.shard_crash fires
  std::uint64_t telemetry_losses = 0;   // fleet.telemetry_loss fires
  std::uint64_t rollback_retries = 0;   // failed restore attempts retried
  std::uint64_t rollback_failures = 0;  // shards whose retries ran out
};

class FleetController {
 public:
  explicit FleetController(FleetConfig config = {});
  ~FleetController();

  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  std::size_t nr_shards() const noexcept { return shards_.size(); }
  /// Shard clocks advance in lockstep; this is the common epoch boundary.
  SimTimeUs Now() const noexcept { return now_; }

  lifecycle::KdamondSupervisor& supervisor(std::size_t shard);
  sim::System& system(std::size_t shard);
  fault::FaultPlane& plane(std::size_t shard);
  bool quarantined(std::size_t shard) const;
  bool in_wave(std::size_t shard) const;

  /// Publishes "fleet.*" counters, per-epoch health gauges
  /// (fleet.health.saving_{p50,p99}) and the monitor CPU-overhead
  /// histogram (fleet.health.cpu_overhead). The registry must outlive the
  /// controller's stepping.
  void BindTelemetry(telemetry::MetricsRegistry& registry);

  /// Broadcasts a fault-plane configuration (fault.hpp grammar) to every
  /// shard's plane. Per-shard RNG streams stay distinct (each plane keeps
  /// its own seed), so "daemon.crash p=0.05" is a decorrelated storm, not
  /// a lockstep one. All-or-nothing per plane; the first error wins.
  bool ConfigureFaults(std::string_view text, std::string* error = nullptr);

  /// Parses the "/fleet/rollout" write format: one directive per line,
  /// '#' comments —
  ///   canary <frac>                first-wave fraction in (0, 1]
  ///   ramp <frac> <frac> ...       ascending cumulative fractions
  ///   gate_epochs <n>
  ///   timeout_epochs <n>
  ///   max_saving_regression <x>
  ///   max_cpu_overhead <x>
  ///   max_scheme_errors <n>
  ///   attrs <...> / scheme <...>   commit-bundle lines (supervisor grammar)
  /// At least one attrs/scheme line is required; omitted knobs keep the
  /// RolloutSpec defaults.
  static bool ParseRolloutSpec(std::string_view text, RolloutSpec* spec,
                               std::string* error);

  /// Validates `spec` (bundle included) and commits the canary wave.
  /// Returns false — with nothing staged anywhere — on validation errors
  /// or while a rollout/rollback is still in flight.
  bool StartRollout(const RolloutSpec& spec, std::string* error);
  bool StartRolloutFromText(std::string_view text, std::string* error);

  /// One control-loop epoch: seeded fleet fault checks (serial), all
  /// shards stepped one epoch (parallel, thread-confined), then health
  /// collection, quarantine policy, rollback retries, and the rollout gate
  /// (all serial).
  void RunEpoch();

  /// Runs epochs until the rollout reaches a terminal state and every
  /// pending rollback drained, or `max_epochs` (0 = the rollout's timeout
  /// plus retry slack) elapsed. Returns the rollout state.
  RolloutState RunRollout(std::uint32_t max_epochs = 0);

  RolloutState rollout_state() const noexcept { return state_; }
  /// True while gating or while rollback restores are still pending.
  bool rollout_active() const;
  /// Why the `initial_schemes` install failed ("shard <i>: <parse error>"
  /// for the first failing shard); empty when it succeeded. Those shards
  /// run monitoring-only.
  const std::string& init_error() const noexcept { return init_error_; }
  const std::string& last_rollout_result() const noexcept {
    return last_rollout_result_;
  }
  const FleetCounters& counters() const noexcept { return counters_; }

  /// The "/fleet/status" read: fleet-level "key value" lines followed by
  /// one "shard <i> ..." line per shard. An "init_error" line appears only
  /// when the initial scheme install failed.
  std::string StatusText() const;

  /// The "/fleet/quarantine" read: one "add <i>" line per quarantined
  /// shard — valid input for WriteQuarantine, so the file round-trips.
  std::string QuarantineText() const;
  /// The "/fleet/quarantine" write: "add <i>" / "release <i>" / "clear"
  /// directives, '#' comments. All-or-nothing with line-numbered errors.
  bool WriteQuarantine(std::string_view text, std::string* error);

 private:
  struct Shard;
  struct ActiveRollout {
    RolloutSpec spec;
    std::size_t stage = 0;         // index into stage fractions
    std::uint32_t epochs = 0;      // epochs since StartRollout
    std::uint32_t healthy_streak = 0;
    double baseline_saving_p50 = 0.0;  // pre-rollout fleet saving (final
                                       // stage has no control shards)
  };

  std::unique_ptr<Shard> BuildShard(std::size_t index);
  std::size_t ActiveShards() const;
  /// The rollout is in a gating state (canary or ramping).
  bool gating() const noexcept;
  /// The shard still owes a rollback restore.
  bool RollingBack(const Shard& shard) const;
  double StageFraction(std::size_t stage) const;
  std::size_t StageCount() const;
  bool ApplyStage(std::string* error);
  void CollectHealth();
  void PoliceQuarantine();
  void Quarantine(Shard& shard);
  void Release(Shard& shard);
  void EvaluateRollout();
  void BeginRollback(RolloutState final_state, const std::string& reason);
  void ContinueRollback();
  void FinishShardRollback(Shard& shard);
  void PublishTelemetry();

  FleetConfig config_;
  analysis::ParallelRunner runner_;
  std::vector<std::unique_ptr<Shard>> shards_;
  SimTimeUs now_ = 0;
  RolloutState state_ = RolloutState::kIdle;
  std::optional<ActiveRollout> rollout_;
  std::uint32_t last_timeout_epochs_ = 0;  // RunRollout default budget
  std::string last_rollout_result_ = "idle";
  std::string init_error_;  // initial scheme install failure, if any
  FleetCounters counters_;

  telemetry::MetricsRegistry* registry_ = nullptr;
  struct {
    telemetry::Gauge* epochs = nullptr;
    telemetry::Gauge* quarantined = nullptr;
    telemetry::Gauge* saving_p50 = nullptr;
    telemetry::Gauge* saving_p99 = nullptr;
    telemetry::Histogram* cpu_overhead = nullptr;
    telemetry::Counter* gate_trips = nullptr;
    telemetry::Counter* quarantines = nullptr;
    telemetry::Counter* rollbacks = nullptr;
  } tel_;
};

}  // namespace daos::fleet
