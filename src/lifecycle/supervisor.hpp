// The kdamond lifecycle supervisor.
//
// Upstream DAMON runs each monitoring context on a kernel thread whose
// lifetime is managed for it: online reconfiguration goes through
// damon_commit_ctx instead of a stop/start that would discard everything
// the monitor learned, and a kdamond that dies must not take the
// monitoring service down with it. This module is the reproduction's
// version of that management layer. Its whole state is its config, the
// address spaces it monitors, and its checkpoint; it owns one
// monitor/engine/recorder stack and wraps it in three robustness pillars:
//
//   1. Transactional online reconfiguration. A Commit bundle (new attrs
//      and/or a new scheme set, including governor clauses) is validated
//      as a whole up front — a rejected bundle changes *nothing* — and a
//      valid one is applied between aggregation windows: regions and ages
//      survive an interval change, and schemes carry their stats and
//      governor charge state across the swap by bounds identity
//      (SchemesEngine::CommitSchemes).
//
//   2. Checkpoint/restore. On a configurable cadence (aligned to window
//      boundaries) the supervisor captures the full monitoring state as a
//      Checkpoint value (checkpoint.hpp) and keeps the latest one; a
//      crashed kdamond is rebuilt from it instead of cold-starting. Text is
//      written only where a checkpoint leaves the process: explicit
//      save/restore through dbgfs and daos_ctl.
//
//   3. Crash-loop containment. The kdamond dies *silently* (the
//      "daemon.crash" fault point; a real oops sends no notification), so
//      detection is a heartbeat check off the sim clock. Restarts back
//      off exponentially and draw from a bounded budget per sliding
//      window; when the budget is exhausted the supervisor brings the
//      stack back in degraded mode — monitoring continues, schemes are
//      disarmed — until a full quiet window re-arms them.
//
// State machine (DESIGN.md §9): Running -> Draining (commit staged) ->
// Committing -> Running; Running -> [dead] -> Restoring -> Running or
// Degraded; Degraded -> Running after a quiet budget window.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "damon/attrs.hpp"
#include "damon/monitor.hpp"
#include "damon/recorder.hpp"
#include "damos/engine.hpp"
#include "fault/fault.hpp"
#include "lifecycle/checkpoint.hpp"
#include "sim/system.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_buffer.hpp"
#include "util/types.hpp"

namespace daos::lifecycle {

enum class SupervisorState : std::uint8_t {
  kRunning,     // kdamond alive, no commit staged
  kDraining,    // commit staged, waiting for the window boundary
  kCommitting,  // bundle being swapped in (transient within one Step)
  kRestoring,   // kdamond dead, restart scheduled (backoff)
  kDegraded,    // restart budget exhausted: monitoring-only, schemes idle
};

std::string_view SupervisorStateName(SupervisorState state);

struct SupervisorConfig {
  damon::MonitoringAttrs attrs;
  std::uint64_t seed = 42;
  /// Recorder cadence (0 = record every aggregation interval).
  SimTimeUs recorder_every = 0;
  /// Periodic checkpoint cadence, taken at the first window boundary past
  /// each deadline (0 disables periodic capture; explicit captures still
  /// work).
  SimTimeUs checkpoint_interval = kUsPerSec;

  // Crash containment. The heartbeat is stamped on every live Step; the
  // supervisor polls it every `heartbeat_interval` and declares the
  // kdamond dead when it goes `heartbeat_timeout` stale.
  SimTimeUs heartbeat_interval = 100 * kUsPerMs;
  SimTimeUs heartbeat_timeout = 300 * kUsPerMs;
  /// Restart delay: backoff_base << min(consecutive_crashes, max_exp).
  SimTimeUs restart_backoff = 100 * kUsPerMs;
  std::uint32_t max_backoff_exp = 6;
  /// Restarts allowed per `restart_budget_window`; the next one past the
  /// budget comes up degraded. A full quiet window resets the budget, the
  /// backoff, and re-arms a degraded engine.
  std::uint32_t restart_budget = 3;
  SimTimeUs restart_budget_window = 60 * kUsPerSec;
};

struct LifecycleCounters {
  std::uint64_t commits = 0;           // bundles swapped in
  std::uint64_t rollbacks = 0;         // bundles rejected (nothing changed)
  std::uint64_t checkpoints = 0;       // captures (periodic + explicit)
  std::uint64_t restores = 0;          // rebuilds from a checkpoint
  std::uint64_t cold_restarts = 0;     // rebuilds without one
  std::uint64_t crashes = 0;           // kdamond deaths detected
  std::uint64_t degraded_entries = 0;  // times the budget ran out
};

/// A staged reconfiguration. Absent members keep the running values; the
/// whole bundle is validated before any of it is applied.
struct CommitBundle {
  std::optional<damon::MonitoringAttrs> attrs;
  std::optional<std::vector<damos::Scheme>> schemes;

  bool empty() const noexcept {
    return !attrs.has_value() && !schemes.has_value();
  }
};

class KdamondSupervisor {
 public:
  explicit KdamondSupervisor(SupervisorConfig config = {});

  KdamondSupervisor(const KdamondSupervisor&) = delete;
  KdamondSupervisor& operator=(const KdamondSupervisor&) = delete;

  /// Registers the supervisor as a System daemon, binds the machine
  /// (watermark metrics, time-quota pricing) and subscribes to fault-plane
  /// swaps so the "daemon.crash" point stays current. Every stack, this
  /// one and each rebuild, monitors `spaces` in order: one VaddrPrimitives
  /// per space at the machine's `monitor_check_us`. The spaces and the
  /// system must outlive the supervisor's stepping.
  void AttachTo(sim::System& system, std::vector<sim::AddressSpace*> spaces);

  /// Publishes "lifecycle.*" counters, re-binds the owned stack's
  /// telemetry, and emits kDaemonCrash / kLifecycleRestart /
  /// kLifecycleCommit / kLifecycleDegraded tracepoints when `trace` is
  /// non-null. Survives stack rebuilds: every new context/engine is bound
  /// to the same registry before any state is imported, so counters stay
  /// monotonic across crashes.
  void BindTelemetry(telemetry::MetricsRegistry& registry,
                     telemetry::TraceBuffer* trace = nullptr);

  damon::DamonContext& context() noexcept { return *ctx_; }
  const damon::DamonContext& context() const noexcept { return *ctx_; }
  damos::SchemesEngine& engine() noexcept { return *engine_; }
  const damos::SchemesEngine& engine() const noexcept { return *engine_; }
  damon::Recorder& recorder() noexcept { return *recorder_; }
  const damon::Recorder& recorder() const noexcept { return *recorder_; }

  /// Initial (non-transactional) scheme install, for setup before the
  /// first Step. Online changes should go through Commit*.
  bool InstallSchemesFromText(std::string_view text, std::string* error);

  // ---- pillar 1: transactional online reconfiguration ----

  /// Parses the "/commit" write format: one directive per line, '#'
  /// comments allowed —
  ///   attrs <sample_us> <aggr_us> <update_us> <min_nr> <max_nr>
  ///   scheme <scheme line (parser.hpp grammar, governor clauses ok)>
  /// Any number of scheme lines forms the full replacement set. Adaptive
  /// mode and the age-reset threshold are not part of the wire format and
  /// carry over from the running attrs.
  bool ParseCommitBundle(std::string_view text, CommitBundle* bundle,
                         std::string* error) const;

  /// Validates `bundle` as a whole and stages it for the next aggregation
  /// window boundary (immediately when monitoring has not started).
  /// Returns false — with *nothing* staged or changed — on any validation
  /// error. Staging twice replaces the previous staged bundle.
  bool StageCommit(CommitBundle bundle, std::string* error);

  /// ParseCommitBundle + StageCommit.
  bool CommitFromText(std::string_view text, std::string* error);

  bool commit_pending() const noexcept { return staged_.has_value(); }
  /// Drops a staged-but-unapplied bundle (kDraining falls back to
  /// kRunning). The fleet rollback path calls this before restoring a
  /// pre-wave checkpoint: a bundle left staged would re-apply after the
  /// restore and silently undo the rollback.
  void CancelStagedCommit();
  /// Human-readable outcome of the most recent commit attempt.
  const std::string& last_commit_result() const noexcept {
    return last_commit_result_;
  }

  // ---- pillar 2: checkpoint/restore ----

  /// Captures the current stack state, stores it as the crash-restart
  /// source and counts a checkpoint.
  const Checkpoint& Capture();
  /// The text of a Capture(): the dbgfs and daos_ctl form.
  std::string CaptureCheckpointText();

  /// Rebuilds the stack from `cp`; also the crash-restart path. On a target
  /// count mismatch the stack comes up cold on the current configuration.
  bool Restore(const Checkpoint& cp, std::string* error);
  /// ParseCheckpoint + Restore; parse errors leave the running stack
  /// untouched.
  bool RestoreFromText(std::string_view text, std::string* error);

  /// The crash-restart source as text, serialized on each call ("" before
  /// the first capture).
  std::string last_checkpoint() const;

  // ---- pillar 3: stepping & crash containment ----

  /// The System daemon body: consults "daemon.crash", steps the monitor
  /// while alive, supervises the corpse while not. Returns the workload
  /// interference of this quantum (0 while dead — a dead kdamond samples
  /// nothing).
  double Step(SimTimeUs now, SimTimeUs quantum);

  bool alive() const noexcept { return alive_; }
  SupervisorState state() const noexcept { return state_; }
  const LifecycleCounters& counters() const noexcept { return counters_; }

  /// The restart-budget sliding window actually used, clamped to at least
  /// one aggregation interval (and never zero): a zero-width window would
  /// roll on every step, resetting the backoff and re-arming a degraded
  /// engine continuously — crash containment silently off. The clamp
  /// covers a zero `restart_budget_window` configuration; the commit path
  /// refuses attrs that would push the aggregation interval past the
  /// configured window (StageCommit), so the clamp never silently *grows*
  /// a window the operator set.
  SimTimeUs EffectiveBudgetWindow() const noexcept;

  /// The "/state" read: one "key value" pair per line.
  std::string StateText() const;

 private:
  void RebuildStack();
  void AddTargets();
  void BindStackTelemetry();
  void OnWindowBoundary(SimTimeUs now);
  void ApplyStagedCommit(SimTimeUs now);
  void SuperviseDead(SimTimeUs now);
  void Restart(SimTimeUs now);
  void RollBudgetWindow(SimTimeUs now);
  /// Counts one event in `counters_` and its bound registry mirror.
  void Count(std::uint64_t LifecycleCounters::*field);
  /// Counts a rollback of a rejected bundle; returns false.
  bool Reject(const std::string& message, std::string* error);
  void Push(telemetry::EventKind kind, std::uint64_t arg0,
            std::uint64_t arg1 = 0, std::uint64_t arg2 = 0);
  /// `schemes` with stats and runtime dropped: the cold-restart install
  /// set (configuration survives a checkpointless crash, learned state
  /// cannot).
  static std::vector<damos::Scheme> StripRuntime(
      const std::vector<damos::Scheme>& schemes);

  SupervisorConfig config_;
  std::vector<sim::AddressSpace*> spaces_;  // the monitored targets, in order
  const sim::Machine* machine_ = nullptr;
  fault::FaultPoint* crash_point_ = nullptr;

  // The supervised stack. Rebuilt wholesale on restart; ctx_ is destroyed
  // first (its hooks reference the engine and recorder). The recorder keeps
  // the newest kRecorderTailMax snapshots.
  std::unique_ptr<damon::DamonContext> ctx_;
  std::unique_ptr<damos::SchemesEngine> engine_;
  std::unique_ptr<damon::Recorder> recorder_;

  // Current configuration, tracked outside the stack so cold restarts and
  // commits know what to rebuild.
  damon::MonitoringAttrs current_attrs_;
  std::vector<damos::Scheme> current_schemes_;

  SupervisorState state_ = SupervisorState::kRunning;
  bool alive_ = true;
  SimTimeUs now_ = 0;

  std::optional<CommitBundle> staged_;
  std::string last_commit_result_;

  std::optional<Checkpoint> last_checkpoint_;  // the crash-restart source
  SimTimeUs next_checkpoint_ = 0;

  // Crash containment runtime.
  SimTimeUs last_heartbeat_ = 0;
  SimTimeUs next_health_check_ = 0;
  bool crash_detected_ = false;
  SimTimeUs restart_at_ = 0;
  std::uint32_t backoff_exp_ = 0;
  std::uint32_t restarts_in_window_ = 0;
  SimTimeUs budget_window_start_ = 0;

  LifecycleCounters counters_;

  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::TraceBuffer* trace_ = nullptr;
  std::vector<telemetry::Counter*> tel_;  // one per counter row, once bound
};

}  // namespace daos::lifecycle
