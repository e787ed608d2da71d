#include "lifecycle/supervisor.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "damon/primitives.hpp"
#include "damos/parser.hpp"
#include "util/strings.hpp"

namespace daos::lifecycle {

namespace {

// Each lifecycle counter, named once: "lifecycle.<name>" in the registry and
// "<name>" in StateText, in this order.
struct CounterRow {
  const char* name;
  std::uint64_t LifecycleCounters::*field;
};

constexpr CounterRow kCounters[] = {
    {"commits", &LifecycleCounters::commits},
    {"rollbacks", &LifecycleCounters::rollbacks},
    {"checkpoints", &LifecycleCounters::checkpoints},
    {"restores", &LifecycleCounters::restores},
    {"cold_restarts", &LifecycleCounters::cold_restarts},
    {"crashes", &LifecycleCounters::crashes},
    {"degraded_entries", &LifecycleCounters::degraded_entries},
};

}  // namespace

std::string_view SupervisorStateName(SupervisorState state) {
  switch (state) {
    case SupervisorState::kRunning:
      return "running";
    case SupervisorState::kDraining:
      return "draining";
    case SupervisorState::kCommitting:
      return "committing";
    case SupervisorState::kRestoring:
      return "restoring";
    case SupervisorState::kDegraded:
      return "degraded";
  }
  return "?";
}

KdamondSupervisor::KdamondSupervisor(SupervisorConfig config)
    : config_(config), current_attrs_(config.attrs) {
  next_checkpoint_ = config_.checkpoint_interval;
  RebuildStack();
}

void KdamondSupervisor::RebuildStack() {
  // The context's aggregation hooks capture the engine and recorder by
  // reference: tear the context down first, then replace the callees.
  ctx_.reset();
  engine_ = std::make_unique<damos::SchemesEngine>();
  recorder_ = std::make_unique<damon::Recorder>(kRecorderTailMax);
  ctx_ = std::make_unique<damon::DamonContext>(current_attrs_, config_.seed);
  engine_->Attach(*ctx_);
  engine_->SetMachine(machine_);
  recorder_->Attach(*ctx_, config_.recorder_every);
  AddTargets();
  // Telemetry binds before any state import: the bind-time catch-up sees
  // all-zero counters, so registry totals stay monotonic across rebuilds
  // instead of double-counting the restored values.
  BindStackTelemetry();
}

void KdamondSupervisor::AddTargets() {
  for (sim::AddressSpace* space : spaces_)
    ctx_->AddTarget(std::make_unique<damon::VaddrPrimitives>(
        space, machine_->costs().monitor_check_us));
}

void KdamondSupervisor::AttachTo(sim::System& system,
                                 std::vector<sim::AddressSpace*> spaces) {
  machine_ = &system.machine();
  spaces_ = std::move(spaces);
  engine_->SetMachine(machine_);
  AddTargets();
  system.AddFaultPlaneListener([this](fault::FaultPlane* plane) {
    crash_point_ =
        plane != nullptr ? &plane->Point(fault::kDaemonCrash) : nullptr;
  });
  system.RegisterDaemon([this](SimTimeUs now, SimTimeUs quantum) {
    return Step(now, quantum);
  });
}

void KdamondSupervisor::BindTelemetry(telemetry::MetricsRegistry& registry,
                                      telemetry::TraceBuffer* trace) {
  registry_ = &registry;
  trace_ = trace;
  tel_.clear();
  for (const CounterRow& row : kCounters) {
    tel_.push_back(&registry.GetCounter(std::string("lifecycle.") + row.name));
    tel_.back()->Add(counters_.*row.field);  // catch up on earlier counts
  }
  BindStackTelemetry();
}

void KdamondSupervisor::BindStackTelemetry() {
  if (registry_ == nullptr) return;
  ctx_->BindTelemetry(*registry_, trace_, "damon.ctx0");
  engine_->BindTelemetry(*registry_, trace_, "damos");
}

void KdamondSupervisor::Count(std::uint64_t LifecycleCounters::*field) {
  ++(counters_.*field);
  for (std::size_t i = 0; i < tel_.size(); ++i)
    if (kCounters[i].field == field) tel_[i]->Add(1);
}

void KdamondSupervisor::Push(telemetry::EventKind kind, std::uint64_t arg0,
                             std::uint64_t arg1, std::uint64_t arg2) {
  if (trace_ != nullptr) trace_->Push({now_, kind, 0, arg0, arg1, arg2});
}

bool KdamondSupervisor::InstallSchemesFromText(std::string_view text,
                                               std::string* error) {
  std::vector<std::string> errors;
  if (!engine_->InstallFromText(text, &errors)) {
    if (error != nullptr)
      *error = errors.empty() ? "scheme parse error" : errors.front();
    return false;
  }
  current_schemes_ = StripRuntime(engine_->schemes());
  return true;
}

std::vector<damos::Scheme> KdamondSupervisor::StripRuntime(
    const std::vector<damos::Scheme>& schemes) {
  std::vector<damos::Scheme> out;
  out.reserve(schemes.size());
  for (const damos::Scheme& s : schemes) {
    damos::Scheme bare(s.bounds());
    bare.policy() = s.policy();
    out.push_back(std::move(bare));
  }
  return out;
}

// ---- pillar 1: transactional online reconfiguration ---------------------

bool KdamondSupervisor::ParseCommitBundle(std::string_view text,
                                          CommitBundle* bundle,
                                          std::string* error) const {
  CommitBundle out;
  std::vector<damos::Scheme> schemes;
  bool have_schemes = false;
  LineCursor lines(text);
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = LineError(lines.line_no(), message);
    return false;
  };
  std::string_view line;
  while (lines.Next(&line)) {
    line = TrimWhitespace(StripComment(line));
    if (line.empty()) continue;
    const std::size_t space = line.find_first_of(" \t");
    const std::string_view directive = line.substr(0, space);
    const std::string_view rest =
        space == std::string_view::npos
            ? std::string_view{}
            : TrimWhitespace(line.substr(space + 1));
    if (directive == "attrs") {
      if (out.attrs.has_value()) return fail("duplicate attrs directive");
      // The wire form carries the five classic attrs; adaptive mode and the
      // age-reset threshold keep their running values.
      damon::MonitoringAttrs attrs = current_attrs_;
      std::string why;
      if (!damon::ParseAttrsLine(rest, &attrs, &why)) return fail(why);
      out.attrs = attrs;
    } else if (directive == "scheme") {
      const damos::ParseResult parsed = damos::ParseSchemeLine(rest);
      if (!parsed.ok()) return fail(parsed.errors.front().message);
      schemes.push_back(parsed.schemes.front());
      have_schemes = true;
    } else {
      return fail("unknown directive '" + std::string(directive) +
                  "' (want attrs|scheme)");
    }
  }
  if (have_schemes) out.schemes = std::move(schemes);
  if (out.empty()) {
    if (error != nullptr)
      *error = LineError(
          1, "empty commit bundle (no attrs or scheme directives)");
    return false;
  }
  *bundle = std::move(out);
  return true;
}

bool KdamondSupervisor::Reject(const std::string& message,
                               std::string* error) {
  Count(&LifecycleCounters::rollbacks);
  last_commit_result_ = "rejected: " + message;
  if (error != nullptr) *error = message;
  return false;
}

bool KdamondSupervisor::StageCommit(CommitBundle bundle, std::string* error) {
  if (bundle.empty()) return Reject("empty commit bundle", error);
  if (bundle.attrs.has_value()) {
    const damon::MonitoringAttrs& a = *bundle.attrs;
    std::string why;
    if (!damon::ValidateAttrs(a, &why)) return Reject(why, error);
    // The restart-budget window slides in sim-clock deltas but its quiet
    // check only happens at stepping cadence; an aggregation interval
    // larger than the window would leave zero window boundaries inside it
    // (checkpoints and the degraded re-arm both align to boundaries), and
    // clamping silently would widen a window the operator configured.
    // Reject the bundle instead — mid-run reconfiguration must keep at
    // least one full aggregation window inside the budget window.
    if (config_.restart_budget_window > 0 &&
        a.aggregation_interval > config_.restart_budget_window)
      return Reject(
          "attrs: aggregation interval " +
              std::to_string(a.aggregation_interval) +
              "us exceeds the restart budget window " +
              std::to_string(config_.restart_budget_window) +
              "us (zero aggregation windows would fit the sliding window)",
          error);
  }
  if (bundle.schemes.has_value()) {
    // Scheme lines were validated at parse time; a programmatic bundle
    // gets the same cross-field policy checks here so both entry points
    // reject identically.
    for (std::size_t i = 0; i < bundle.schemes->size(); ++i) {
      std::string policy_error;
      if (!governor::ValidatePolicy((*bundle.schemes)[i].policy(),
                                    &policy_error))
        return Reject("scheme " + std::to_string(i) + ": " + policy_error,
                      error);
    }
  }
  staged_ = std::move(bundle);
  last_commit_result_ = "staged";
  if (!ctx_->ExportSchedState().primed) {
    // Monitoring has not produced a window yet: nothing to drain.
    ApplyStagedCommit(now_);
  } else if (state_ == SupervisorState::kRunning) {
    state_ = SupervisorState::kDraining;
  }
  return true;
}

bool KdamondSupervisor::CommitFromText(std::string_view text,
                                       std::string* error) {
  CommitBundle bundle;
  std::string parse_error;
  if (!ParseCommitBundle(text, &bundle, &parse_error))
    return Reject(parse_error, error);
  return StageCommit(std::move(bundle), error);
}

void KdamondSupervisor::CancelStagedCommit() {
  if (!staged_.has_value()) return;
  staged_.reset();
  last_commit_result_ = "cancelled";
  if (state_ == SupervisorState::kDraining) state_ = SupervisorState::kRunning;
}

void KdamondSupervisor::ApplyStagedCommit(SimTimeUs now) {
  const SupervisorState resume = state_ == SupervisorState::kDegraded
                                     ? SupervisorState::kDegraded
                                     : SupervisorState::kRunning;
  state_ = SupervisorState::kCommitting;
  damos::SchemesEngine::CommitOutcome outcome;
  if (staged_->attrs.has_value()) {
    ctx_->CommitAttrs(*staged_->attrs, now);
    current_attrs_ = *staged_->attrs;
  }
  if (staged_->schemes.has_value()) {
    outcome = engine_->CommitSchemes(std::move(*staged_->schemes));
    current_schemes_ = StripRuntime(engine_->schemes());
  }
  staged_.reset();
  Count(&LifecycleCounters::commits);
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "committed: %zu carried %zu fresh %zu quota_resets",
                outcome.carried, outcome.fresh, outcome.quota_resets);
  last_commit_result_ = buf;
  Push(telemetry::EventKind::kLifecycleCommit, outcome.carried, outcome.fresh,
       outcome.quota_resets);
  state_ = resume;
}

// ---- pillar 2: checkpoint/restore ---------------------------------------

const Checkpoint& KdamondSupervisor::Capture() {
  last_checkpoint_ = CaptureCheckpoint(*ctx_, *engine_, recorder_.get(), now_);
  Count(&LifecycleCounters::checkpoints);
  return *last_checkpoint_;
}

std::string KdamondSupervisor::CaptureCheckpointText() {
  return SerializeCheckpoint(Capture());
}

std::string KdamondSupervisor::last_checkpoint() const {
  return last_checkpoint_.has_value() ? SerializeCheckpoint(*last_checkpoint_)
                                      : std::string();
}

bool KdamondSupervisor::Restore(const Checkpoint& cp, std::string* error) {
  current_attrs_ = cp.attrs;
  RebuildStack();
  if (!RestoreCheckpoint(cp, *ctx_, *engine_, recorder_.get(), error)) {
    // The old stack is gone; come up cold on the current configuration
    // rather than half-restored.
    engine_->Install(current_schemes_);
    return false;
  }
  current_schemes_ = StripRuntime(engine_->schemes());
  Count(&LifecycleCounters::restores);
  return true;
}

bool KdamondSupervisor::RestoreFromText(std::string_view text,
                                        std::string* error) {
  CheckpointError parse_error;
  const std::optional<Checkpoint> cp = ParseCheckpoint(text, &parse_error);
  if (!cp.has_value()) {
    if (error != nullptr)
      *error = LineError(parse_error.line_number, parse_error.message);
    return false;
  }
  return Restore(*cp, error);
}

// ---- pillar 3: stepping & crash containment -----------------------------

double KdamondSupervisor::Step(SimTimeUs now, SimTimeUs quantum) {
  now_ = now;
  if (!alive_) {
    SuperviseDead(now);
    return 0.0;
  }
  if (fault::Fires(crash_point_)) {
    // The kdamond dies silently, like a kernel thread oops: no exit
    // notification, no cleanup. The heartbeat goes stale and detection is
    // the supervisor's next health check.
    alive_ = false;
    return 0.0;
  }
  RollBudgetWindow(now);
  const std::uint64_t windows_before = ctx_->counters().aggregations;
  const double interference = ctx_->Step(now, quantum);
  last_heartbeat_ = now;
  if (ctx_->counters().aggregations != windows_before) OnWindowBoundary(now);
  return interference;
}

void KdamondSupervisor::OnWindowBoundary(SimTimeUs now) {
  if (staged_.has_value()) ApplyStagedCommit(now);
  if (config_.checkpoint_interval > 0 && now >= next_checkpoint_) {
    Capture();
    next_checkpoint_ = now + config_.checkpoint_interval;
  }
}

void KdamondSupervisor::SuperviseDead(SimTimeUs now) {
  if (!crash_detected_) {
    if (now < next_health_check_) return;
    next_health_check_ = now + config_.heartbeat_interval;
    if (now - last_heartbeat_ < config_.heartbeat_timeout) return;
    // Stale heartbeat: declare the crash and schedule the restart.
    crash_detected_ = true;
    Count(&LifecycleCounters::crashes);
    Push(telemetry::EventKind::kDaemonCrash, now - last_heartbeat_,
         backoff_exp_);
    const std::uint32_t exp =
        std::min(backoff_exp_, config_.max_backoff_exp);
    restart_at_ = now + (config_.restart_backoff << exp);
    ++backoff_exp_;
    state_ = SupervisorState::kRestoring;
    return;
  }
  if (now >= restart_at_) Restart(now);
}

SimTimeUs KdamondSupervisor::EffectiveBudgetWindow() const noexcept {
  const SimTimeUs floor =
      std::max<SimTimeUs>(current_attrs_.aggregation_interval, 1);
  return std::max(config_.restart_budget_window, floor);
}

void KdamondSupervisor::RollBudgetWindow(SimTimeUs now) {
  if (now < budget_window_start_ + EffectiveBudgetWindow()) return;
  budget_window_start_ = now;
  restarts_in_window_ = 0;
  backoff_exp_ = 0;
  if (state_ == SupervisorState::kDegraded && alive_) {
    // A full quiet window earned the schemes back.
    engine_->SetDisarmed(false);
    state_ = staged_.has_value() ? SupervisorState::kDraining
                                 : SupervisorState::kRunning;
  }
}

void KdamondSupervisor::Restart(SimTimeUs now) {
  const bool degrade = restarts_in_window_ >= config_.restart_budget;
  ++restarts_in_window_;
  bool restored = false;
  if (last_checkpoint_.has_value()) {
    std::string error;
    restored = Restore(*last_checkpoint_, &error);
  }
  if (!restored) {
    // No (usable) checkpoint: the configuration survives, the learned
    // state does not.
    RebuildStack();
    engine_->Install(current_schemes_);
    Count(&LifecycleCounters::cold_restarts);
  }
  alive_ = true;
  crash_detected_ = false;
  last_heartbeat_ = now;
  next_health_check_ = now + config_.heartbeat_interval;
  if (degrade) {
    Count(&LifecycleCounters::degraded_entries);
    Push(telemetry::EventKind::kLifecycleDegraded, restarts_in_window_,
         config_.restart_budget);
    state_ = SupervisorState::kDegraded;
  } else {
    state_ = staged_.has_value() ? SupervisorState::kDraining
                                 : SupervisorState::kRunning;
  }
  // The supervisor, not the checkpoint, decides degraded mode: a snapshot
  // captured while healthy must not re-arm schemes past an exhausted
  // budget, and one captured while degraded must not pin a recovered
  // kdamond down.
  engine_->SetDisarmed(degrade);
  Push(telemetry::EventKind::kLifecycleRestart, restored ? 1 : 0,
       restarts_in_window_, degrade ? 1 : 0);
}

std::string KdamondSupervisor::StateText() const {
  std::string out = "state " + std::string(SupervisorStateName(state_));
  AppendF(out, "\nalive %d\ncommit_pending %d\n", alive_ ? 1 : 0,
          staged_.has_value() ? 1 : 0);
  for (const CounterRow& row : kCounters)
    AppendF(out, "%s %" PRIu64 "\n", row.name, counters_.*row.field);
  AppendF(out,
          "restart_budget %u/%u\nbudget_window_us %" PRIu64
          "\nbackoff_exp %u\nrestart_at %" PRIu64
          "\nlast_checkpoint_at %" PRIu64 "\nlast_checkpoint_bytes %zu\n",
          restarts_in_window_, config_.restart_budget, EffectiveBudgetWindow(),
          backoff_exp_, restart_at_,
          last_checkpoint_.has_value() ? last_checkpoint_->at : SimTimeUs{0},
          last_checkpoint().size());
  if (!last_commit_result_.empty())
    out += "last_commit " + last_commit_result_ + "\n";
  return out;
}

}  // namespace daos::lifecycle
