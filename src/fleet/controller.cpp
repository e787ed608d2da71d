#include "fleet/controller.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "util/stats.hpp"
#include "util/strings.hpp"

namespace daos::fleet {

namespace {

/// Golden-ratio mix so per-shard seeds (plane streams, workload RNGs)
/// decorrelate instead of marching in lockstep off adjacent integers.
constexpr std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  return seed ^ (0x9e37'79b9'7f4a'7c15ULL * (salt + 1));
}

/// Rollback restore attempts per shard before giving up (the shard is then
/// quarantined and counted as a rollback failure).
constexpr std::uint32_t kRollbackRetryMax = 3;
/// Fraction of non-quarantined shards that must deliver a valid health
/// sample for a gate decision; below it the epoch is a quorum miss.
constexpr double kHealthQuorumFrac = 0.5;
/// Crash-storm quarantine: this many crashes within one window of
/// kQuarantineWindowEpochs quarantine a shard (a supervisor entering
/// degraded mode quarantines at once), and a quarantined shard rejoins
/// after kQuarantineProbationEpochs quiet (crash-free, alive) epochs.
constexpr std::uint32_t kQuarantineCrashThreshold = 3;
constexpr std::uint32_t kQuarantineWindowEpochs = 8;
constexpr std::uint32_t kQuarantineProbationEpochs = 4;

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

}  // namespace

std::string_view RolloutStateName(RolloutState state) {
  switch (state) {
    case RolloutState::kIdle:
      return "idle";
    case RolloutState::kCanary:
      return "canary";
    case RolloutState::kRamping:
      return "ramping";
    case RolloutState::kPromoted:
      return "promoted";
    case RolloutState::kRolledBack:
      return "rolled-back";
    case RolloutState::kAborted:
      return "aborted";
  }
  return "?";
}

// One shard: a thread-confined System + supervisor over its slice of the
// server population. Member order is lifetime order — the plane must
// outlive the system (SetFaultPlane contract) and the supervisor must be
// destroyed before the system (its primitives point at process address
// spaces).
struct FleetController::Shard {
  Shard(const FleetConfig& cfg, std::size_t idx,
        std::unique_ptr<fault::FaultPlane> pl,
        const lifecycle::SupervisorConfig& sup_cfg)
      : index(idx),
        plane(std::move(pl)),
        system(cfg.machine, cfg.swap, sim::ThpMode::kNever, cfg.quantum),
        supervisor(sup_cfg) {
    system.SetFaultPlane(plane.get());
    servers.reserve(static_cast<std::size_t>(cfg.workload.nr_processes));
    for (int p = 0; p < cfg.workload.nr_processes; ++p) {
      const int global =
          static_cast<int>(idx) * cfg.workload.nr_processes + p;
      servers.push_back(&system.AddProcess(
          workload::ServerParams(cfg.workload, global),
          std::make_unique<workload::ServerSource>(
              cfg.workload,
              MixSeed(cfg.seed, idx * 1'000'003ULL +
                                    static_cast<std::uint64_t>(p)))));
    }
    std::vector<sim::AddressSpace*> spaces;
    spaces.reserve(servers.size());
    for (sim::Process* s : servers) spaces.push_back(&s->space());
    supervisor.AttachTo(system, std::move(spaces));
    crash_pt = &plane->Point(fault::kFleetShardCrash);
    rollback_pt = &plane->Point(fault::kFleetRollbackFail);
    loss_pt = &plane->Point(fault::kFleetTelemetryLoss);
    initial_rss = static_cast<std::uint64_t>(cfg.workload.nr_processes) *
                  cfg.workload.rss_per_process;
  }

  std::size_t index;
  std::unique_ptr<fault::FaultPlane> plane;
  sim::System system;
  lifecycle::KdamondSupervisor supervisor;
  std::vector<sim::Process*> servers;
  fault::FaultPoint* crash_pt = nullptr;
  fault::FaultPoint* rollback_pt = nullptr;
  fault::FaultPoint* loss_pt = nullptr;

  // Controller bookkeeping (touched only on the serial path).
  bool quarantined = false;
  std::uint32_t rollback_retries = 0;
  // The restore point captured when the shard joined a wave; a shard is in
  // the wave exactly while it holds one, and rolling back exactly while it
  // holds one and the rollout is not gating (RollingBack).
  std::optional<lifecycle::Checkpoint> pre_wave;
  std::uint64_t initial_rss = 0;
  double last_cpu_us = 0.0;
  std::uint64_t last_crashes = 0;
  std::uint64_t last_errors = 0;
  std::uint64_t new_crashes = 0;   // this epoch
  std::uint64_t new_errors = 0;    // this epoch (valid samples only)
  std::uint32_t crashes_in_window = 0;
  std::uint32_t quiet_epochs = 0;  // crash-free epochs while quarantined
  bool sample_valid = false;
  double saving = 0.0;
  double cpu_overhead = 0.0;

  std::uint64_t SchemeErrors() const {
    std::uint64_t errors = 0;
    for (const damos::Scheme& s : supervisor.engine().schemes())
      errors += s.stats().nr_errors;
    return errors;
  }

  std::uint64_t Rss() const {
    std::uint64_t rss = 0;
    for (const sim::Process* p : servers) rss += p->ReadRssBytes();
    return rss;
  }

  double Saving() const {
    return initial_rss == 0
               ? 0.0
               : 1.0 - static_cast<double>(Rss()) /
                           static_cast<double>(initial_rss);
  }

  /// Re-baselines the per-epoch deltas after a restore or release, so the
  /// next health sample measures the new stack, not the discontinuity.
  void RefreshDeltas() {
    last_cpu_us = supervisor.context().counters().cpu_us;
    last_errors = SchemeErrors();
    last_crashes = supervisor.counters().crashes;
  }
};

FleetController::FleetController(FleetConfig config)
    : config_(std::move(config)) {
  if (config_.nr_shards == 0) config_.nr_shards = 1;
  if (config_.quantum == 0) config_.quantum = kUsPerMs;
  // Epoch boundaries must land exactly on quantum boundaries: every shard
  // runs `target - Now()` and the lockstep clocks must agree bit-for-bit.
  config_.epoch = AlignUp(std::max<SimTimeUs>(config_.epoch, config_.quantum),
                          config_.quantum);
  shards_.reserve(config_.nr_shards);
  for (std::size_t i = 0; i < config_.nr_shards; ++i)
    shards_.push_back(BuildShard(i));
  if (!config_.initial_schemes.empty()) {
    for (auto& sp : shards_) {
      std::string err;
      if (!sp->supervisor.InstallSchemesFromText(config_.initial_schemes,
                                                 &err) &&
          init_error_.empty())
        init_error_ = "shard " + std::to_string(sp->index) + ": " + err;
    }
  }
}

FleetController::~FleetController() = default;

std::unique_ptr<FleetController::Shard> FleetController::BuildShard(
    std::size_t index) {
  std::unique_ptr<fault::FaultPlane> plane;
  if (config_.use_env_faults) {
    plane = fault::FaultPlane::FromEnv();
    // Decorrelate the per-shard schedules while keeping the whole fleet a
    // pure function of (DAOS_FAULT_SEED, shard index).
    if (plane != nullptr) plane->Reseed(MixSeed(plane->seed(), index));
  }
  if (plane == nullptr)
    plane = std::make_unique<fault::FaultPlane>(MixSeed(config_.seed, index));
  lifecycle::SupervisorConfig sup = config_.supervisor;
  sup.seed = config_.supervisor.seed + 101 * index + 7;
  return std::make_unique<Shard>(config_, index, std::move(plane), sup);
}

lifecycle::KdamondSupervisor& FleetController::supervisor(std::size_t shard) {
  return shards_.at(shard)->supervisor;
}

sim::System& FleetController::system(std::size_t shard) {
  return shards_.at(shard)->system;
}

fault::FaultPlane& FleetController::plane(std::size_t shard) {
  return *shards_.at(shard)->plane;
}

bool FleetController::quarantined(std::size_t shard) const {
  return shards_.at(shard)->quarantined;
}

bool FleetController::in_wave(std::size_t shard) const {
  return shards_.at(shard)->pre_wave.has_value();
}

void FleetController::BindTelemetry(telemetry::MetricsRegistry& registry) {
  registry_ = &registry;
  tel_.epochs = &registry.GetGauge("fleet.epochs");
  tel_.quarantined = &registry.GetGauge("fleet.shards.quarantined");
  tel_.saving_p50 = &registry.GetGauge("fleet.health.saving_p50");
  tel_.saving_p99 = &registry.GetGauge("fleet.health.saving_p99");
  tel_.cpu_overhead = &registry.GetHistogram(
      "fleet.health.cpu_overhead",
      {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5});
  tel_.gate_trips = &registry.GetCounter("fleet.rollout.gate_trips");
  tel_.quarantines = &registry.GetCounter("fleet.quarantines");
  tel_.rollbacks = &registry.GetCounter("fleet.rollout.rollbacks");
}

bool FleetController::ConfigureFaults(std::string_view text,
                                      std::string* error) {
  for (auto& sp : shards_)
    if (!sp->plane->Configure(text, error)) return false;
  return true;
}

std::size_t FleetController::ActiveShards() const {
  std::size_t n = 0;
  for (const auto& sp : shards_)
    if (!sp->quarantined) ++n;
  return n;
}

std::size_t FleetController::StageCount() const {
  return rollout_.has_value() ? 1 + rollout_->spec.ramp.size() : 0;
}

double FleetController::StageFraction(std::size_t stage) const {
  return stage == 0 ? rollout_->spec.canary_frac
                    : rollout_->spec.ramp[stage - 1];
}

// ---- rollout staging ------------------------------------------------------

bool FleetController::ParseRolloutSpec(std::string_view text,
                                       RolloutSpec* spec, std::string* error) {
  RolloutSpec out;
  std::string bundle;
  LineCursor lines(text);
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = LineError(lines.line_no(), message);
    return false;
  };
  std::string_view raw;
  while (lines.Next(&raw)) {
    const std::string_view line = StripComment(raw);
    const std::vector<std::string_view> tokens = SplitWhitespace(line);
    if (tokens.empty()) continue;
    const std::string key(tokens[0]);
    if (key == "attrs" || key == "scheme") {
      // Commit-bundle lines pass through verbatim; the supervisor grammar
      // validates them at StartRollout.
      bundle += line;
      bundle += '\n';
      continue;
    }
    if (key == "ramp") {
      std::vector<double> ramp;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto f = ParseFiniteDouble(tokens[i]);
        if (!f && ramp.empty()) break;  // no fraction at all
        if (!f)
          return fail("bad ramp fraction '" + std::string(tokens[i]) + "'");
        ramp.push_back(*f);
      }
      if (ramp.empty()) return fail("ramp needs at least one fraction");
      out.ramp = std::move(ramp);
      continue;
    }
    const std::string_view value =
        tokens.size() > 1 ? tokens[1] : std::string_view{};
    bool ok = false;
    if (key == "canary") {
      ok = StoreParsed(ParseFiniteDouble(value), out.canary_frac);
    } else if (key == "gate_epochs") {
      ok = StoreParsed(ParseU32(value), out.gate_epochs);
    } else if (key == "timeout_epochs") {
      ok = StoreParsed(ParseU32(value), out.timeout_epochs);
    } else if (key == "max_saving_regression") {
      ok = StoreParsed(ParseFiniteDouble(value), out.max_saving_regression);
    } else if (key == "max_cpu_overhead") {
      ok = StoreParsed(ParseFiniteDouble(value), out.max_cpu_overhead);
    } else if (key == "max_scheme_errors") {
      ok = StoreParsed(ParseU64(value), out.max_scheme_errors);
    } else {
      return fail("unknown directive '" + key + "'");
    }
    if (!ok) return fail(key + " needs a value");
    if (tokens.size() > 2) return fail("trailing tokens after " + key);
  }
  if (bundle.empty()) {
    if (error != nullptr)
      *error = LineError(1, "no attrs/scheme lines (nothing to roll out)");
    return false;
  }
  out.bundle_text = std::move(bundle);
  *spec = std::move(out);
  return true;
}

bool FleetController::StartRollout(const RolloutSpec& spec,
                                   std::string* error) {
  auto fail = [&](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  if (rollout_active()) return fail("a rollout is already in flight");
  if (ActiveShards() == 0) return fail("every shard is quarantined");
  lifecycle::CommitBundle bundle;
  std::string err;
  if (!shards_.front()->supervisor.ParseCommitBundle(spec.bundle_text, &bundle,
                                                     &err))
    return fail("bundle: " + err);
  if (!(spec.canary_frac > 0.0 && spec.canary_frac <= 1.0))
    return fail("canary fraction must be in (0, 1]");
  double prev = spec.canary_frac;
  for (const double f : spec.ramp) {
    if (!(f > prev && f <= 1.0))
      return fail(
          "ramp fractions must ascend from the canary fraction to at most 1");
    prev = f;
  }
  if (spec.gate_epochs == 0) return fail("gate_epochs must be >= 1");
  if (spec.timeout_epochs == 0) return fail("timeout_epochs must be >= 1");

  rollout_.emplace();
  rollout_->spec = spec;
  // Pre-rollout fleet health: the control group for the final (fleet-wide)
  // stage, which has no concurrent control shards left.
  std::vector<double> savings;
  for (const auto& sp : shards_)
    if (!sp->quarantined) savings.push_back(sp->Saving());
  rollout_->baseline_saving_p50 =
      savings.empty() ? 0.0 : Percentile(savings, 50.0);
  last_timeout_epochs_ = spec.timeout_epochs;
  state_ = RolloutState::kCanary;
  ++counters_.rollouts;
  last_rollout_result_ = "canary committed";
  if (!ApplyStage(&err)) {
    ++counters_.rolled_back;
    BeginRollback(RolloutState::kRolledBack, "canary commit rejected: " + err);
    return fail("canary commit rejected: " + err);
  }
  return true;
}

bool FleetController::StartRolloutFromText(std::string_view text,
                                           std::string* error) {
  RolloutSpec spec;
  if (!ParseRolloutSpec(text, &spec, error)) return false;
  return StartRollout(spec, error);
}

bool FleetController::ApplyStage(std::string* error) {
  const std::size_t active = ActiveShards();
  std::size_t target = static_cast<std::size_t>(
      std::ceil(StageFraction(rollout_->stage) * static_cast<double>(active)));
  target = std::clamp<std::size_t>(target, 1, active);
  std::size_t committed = 0;
  for (const auto& sp : shards_)
    if (sp->pre_wave && !sp->quarantined) ++committed;
  for (auto& sp : shards_) {
    if (committed >= target) break;
    Shard& s = *sp;
    if (s.quarantined || s.pre_wave || !s.supervisor.alive()) continue;
    s.pre_wave = s.supervisor.Capture();
    std::string err;
    if (!s.supervisor.CommitFromText(rollout_->spec.bundle_text, &err)) {
      // Rejected bundles change nothing on this shard; earlier wave
      // members are the caller's problem (BeginRollback).
      s.pre_wave.reset();
      if (error != nullptr)
        *error = "shard " + std::to_string(s.index) + ": " + err;
      return false;
    }
    ++committed;
  }
  if (committed == 0) {
    if (error != nullptr) *error = "no shard eligible for the wave";
    return false;
  }
  return true;
}

// ---- the control loop -----------------------------------------------------

void FleetController::RunEpoch() {
  const SimTimeUs target = now_ + config_.epoch;
  // Serial fault pre-step: fleet.shard_crash schedules a silent kdamond
  // death for this epoch by arming the shard's own daemon.crash point. An
  // already-armed point (a test or DAOS_FAULTS storm) is left alone.
  for (auto& sp : shards_) {
    Shard& s = *sp;
    if (fault::Fires(s.crash_pt)) {
      ++counters_.crash_injections;
      fault::FaultPoint& dc = s.plane->Point(fault::kDaemonCrash);
      if (!dc.armed()) {
        fault::FaultSpec spec;
        spec.once_at = 1;
        dc.Arm(spec);
      }
    }
  }
  // Parallel step: every shard advances to the same epoch boundary. Shards
  // are thread-confined, so DAOS_JOBS only changes when a shard runs.
  runner_.ForEach(shards_.size(), [this, target](std::size_t i) {
    sim::System& sys = shards_[i]->system;
    const SimTimeUs now = sys.Now();
    if (target > now) sys.Run(target - now);
  });
  now_ = target;
  ++counters_.epochs;
  CollectHealth();
  PoliceQuarantine();
  ContinueRollback();
  EvaluateRollout();
  PublishTelemetry();
}

RolloutState FleetController::RunRollout(std::uint32_t max_epochs) {
  std::uint32_t budget = max_epochs;
  if (budget == 0)
    budget = (last_timeout_epochs_ != 0 ? last_timeout_epochs_ : 64) + 32;
  for (std::uint32_t i = 0; i < budget && rollout_active(); ++i) RunEpoch();
  return state_;
}

bool FleetController::gating() const noexcept {
  return state_ == RolloutState::kCanary || state_ == RolloutState::kRamping;
}

bool FleetController::RollingBack(const Shard& shard) const {
  return shard.pre_wave.has_value() && !gating();
}

bool FleetController::rollout_active() const {
  if (gating()) return true;
  for (const auto& sp : shards_)
    if (RollingBack(*sp)) return true;
  return false;
}

void FleetController::CollectHealth() {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    const std::uint64_t crashes = s.supervisor.counters().crashes;
    s.new_crashes = crashes - s.last_crashes;
    s.last_crashes = crashes;
    s.crashes_in_window += static_cast<std::uint32_t>(s.new_crashes);
    s.sample_valid = false;
    if (s.quarantined) continue;  // monitoring-only: out of the quorum
    if (fault::Fires(s.loss_pt)) {
      // Telemetry lost this epoch: the shard keeps running but cannot
      // contribute a health sample (or count toward the quorum).
      ++counters_.telemetry_losses;
      continue;
    }
    s.saving = s.Saving();
    const double cpu = s.supervisor.context().counters().cpu_us;
    // A restore replaces the context; clamp so the first post-restore
    // sample reads as zero overhead instead of wrapping negative.
    const double delta = cpu > s.last_cpu_us ? cpu - s.last_cpu_us : 0.0;
    s.last_cpu_us = cpu;
    s.cpu_overhead = delta / static_cast<double>(config_.epoch);
    const std::uint64_t errors = s.SchemeErrors();
    s.new_errors = errors > s.last_errors ? errors - s.last_errors : 0;
    s.last_errors = errors;
    s.sample_valid = true;
  }
}

void FleetController::PoliceQuarantine() {
  const bool window_rolls = counters_.epochs % kQuarantineWindowEpochs == 0;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    if (!s.quarantined) {
      if (s.crashes_in_window >= kQuarantineCrashThreshold ||
          s.supervisor.state() == lifecycle::SupervisorState::kDegraded)
        Quarantine(s);
    } else {
      // The supervisor's own restart path re-arms schemes after a quiet
      // budget window; quarantine overrides it until the fleet releases.
      s.supervisor.engine().SetDisarmed(true);
      if (s.new_crashes == 0 && s.supervisor.alive())
        ++s.quiet_epochs;
      else
        s.quiet_epochs = 0;
      if (s.quiet_epochs >= kQuarantineProbationEpochs &&
          s.supervisor.state() != lifecycle::SupervisorState::kDegraded)
        Release(s);
    }
    if (window_rolls) s.crashes_in_window = 0;
  }
}

void FleetController::Quarantine(Shard& shard) {
  shard.quarantined = true;
  shard.quiet_epochs = 0;
  shard.sample_valid = false;
  shard.supervisor.engine().SetDisarmed(true);
  ++counters_.quarantines;
  if (tel_.quarantines != nullptr) tel_.quarantines->Add();
}

void FleetController::Release(Shard& shard) {
  shard.quarantined = false;
  shard.quiet_epochs = 0;
  shard.crashes_in_window = 0;
  shard.supervisor.engine().SetDisarmed(false);
  shard.RefreshDeltas();
  ++counters_.releases;
}

// ---- health gate ----------------------------------------------------------

void FleetController::EvaluateRollout() {
  if (state_ != RolloutState::kCanary && state_ != RolloutState::kRamping)
    return;
  ActiveRollout& ro = *rollout_;
  ++ro.epochs;
  if (ro.epochs > ro.spec.timeout_epochs) {
    ++counters_.aborted;
    BeginRollback(RolloutState::kAborted,
                  "timed out after " + std::to_string(ro.spec.timeout_epochs) +
                      " epochs");
    return;
  }
  const std::size_t active = ActiveShards();
  if (active == 0) {
    ++counters_.aborted;
    BeginRollback(RolloutState::kAborted, "every shard quarantined");
    return;
  }
  std::size_t valid = 0;
  for (const auto& sp : shards_)
    if (!sp->quarantined && sp->sample_valid) ++valid;
  const std::size_t quorum = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(kHealthQuorumFrac *
                                            static_cast<double>(active))));
  if (valid < quorum) {
    // No gate decision without a quorum: neither promote nor roll back on
    // starved telemetry. The timeout bounds how long this can stall.
    ++counters_.quorum_misses;
    ro.healthy_streak = 0;
    return;
  }
  std::vector<double> wave_savings, wave_cpus, control_savings;
  std::uint64_t wave_errors = 0;
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    if (s.quarantined || !s.sample_valid) continue;
    if (s.pre_wave) {
      wave_savings.push_back(s.saving);
      wave_cpus.push_back(s.cpu_overhead);
      wave_errors += s.new_errors;
    } else {
      control_savings.push_back(s.saving);
    }
  }
  if (wave_savings.empty()) {
    ++counters_.quorum_misses;
    ro.healthy_streak = 0;
    return;
  }
  const double wave_p50 = Percentile(wave_savings, 50.0);
  const double wave_p99_cpu = Percentile(wave_cpus, 99.0);
  const double control_p50 = control_savings.empty()
                                 ? ro.baseline_saving_p50
                                 : Percentile(control_savings, 50.0);
  std::string trip;
  if (control_p50 - wave_p50 > ro.spec.max_saving_regression)
    trip = "saving regression (wave p50 " + Fmt(wave_p50) + " vs control " +
           Fmt(control_p50) + ")";
  else if (wave_p99_cpu > ro.spec.max_cpu_overhead)
    trip = "cpu overhead (wave p99 " + Fmt(wave_p99_cpu) + " > " +
           Fmt(ro.spec.max_cpu_overhead) + ")";
  else if (wave_errors > ro.spec.max_scheme_errors)
    trip = "scheme errors (" + std::to_string(wave_errors) + " > " +
           std::to_string(ro.spec.max_scheme_errors) + ")";
  if (!trip.empty()) {
    ++counters_.gate_trips;
    if (tel_.gate_trips != nullptr) tel_.gate_trips->Add();
    ++counters_.rolled_back;
    BeginRollback(RolloutState::kRolledBack, trip);
    return;
  }
  ++ro.healthy_streak;
  if (ro.healthy_streak < ro.spec.gate_epochs) return;
  if (ro.stage + 1 < StageCount()) {
    ++ro.stage;
    ro.healthy_streak = 0;
    state_ = RolloutState::kRamping;
    ++counters_.stage_promotions;
    last_rollout_result_ =
        "ramp stage " + std::to_string(ro.stage) + " committed";
    std::string err;
    if (!ApplyStage(&err)) {
      ++counters_.rolled_back;
      BeginRollback(RolloutState::kRolledBack, "ramp commit rejected: " + err);
    }
    return;
  }
  // Every stage held healthy: the bundle is fleet-wide.
  for (auto& sp : shards_) sp->pre_wave.reset();
  state_ = RolloutState::kPromoted;
  ++counters_.promoted;
  last_rollout_result_ =
      "promoted after " + std::to_string(ro.epochs) + " epochs";
  rollout_.reset();
}

// ---- rollback -------------------------------------------------------------

void FleetController::BeginRollback(RolloutState final_state,
                                    const std::string& reason) {
  for (auto& sp : shards_) sp->rollback_retries = 0;
  state_ = final_state;
  last_rollout_result_ =
      std::string(RolloutStateName(final_state)) + ": " + reason;
  rollout_.reset();
  if (tel_.rollbacks != nullptr) tel_.rollbacks->Add();
  ContinueRollback();
}

void FleetController::ContinueRollback() {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    if (!RollingBack(s)) continue;
    // A dead kdamond cannot restore; wait for the supervisor's backoff to
    // bring it back (the retry budget is for failed restores, not deaths).
    if (!s.supervisor.alive()) continue;
    bool failed = false;
    std::string err;
    if (fault::Fires(s.rollback_pt)) {
      failed = true;
      err = "injected rollback failure";
    } else {
      // The wave bundle may still be staged (committed but not yet at a
      // window boundary); a surviving stage would re-apply after restore.
      s.supervisor.CancelStagedCommit();
      if (!s.supervisor.Restore(*s.pre_wave, &err)) failed = true;
    }
    if (failed) {
      ++counters_.rollback_retries;
      ++s.rollback_retries;
      if (s.rollback_retries > kRollbackRetryMax) {
        ++counters_.rollback_failures;
        s.pre_wave.reset();
        Quarantine(s);
      }
      continue;
    }
    FinishShardRollback(s);
  }
}

void FleetController::FinishShardRollback(Shard& s) {
  // Refresh the crash-restart source: the supervisor's periodic checkpoint
  // may be wave-era, and a crash after rollback must come back pre-wave.
  s.supervisor.Capture();
  s.pre_wave.reset();
  s.rollback_retries = 0;
  s.RefreshDeltas();
}

// ---- observability --------------------------------------------------------

void FleetController::PublishTelemetry() {
  if (registry_ == nullptr) return;
  tel_.epochs->Set(static_cast<double>(counters_.epochs));
  std::size_t quarantined = 0;
  std::vector<double> savings;
  for (const auto& sp : shards_) {
    if (sp->quarantined) {
      ++quarantined;
      continue;
    }
    if (!sp->sample_valid) continue;
    savings.push_back(sp->saving);
    tel_.cpu_overhead->Observe(sp->cpu_overhead);
  }
  tel_.quarantined->Set(static_cast<double>(quarantined));
  if (!savings.empty()) {
    tel_.saving_p50->Set(Percentile(savings, 50.0));
    tel_.saving_p99->Set(Percentile(savings, 99.0));
  }
}

std::string FleetController::StatusText() const {
  std::ostringstream out;
  auto line = [&out](std::string_view key, const auto& value) {
    out << key << ' ' << value << '\n';
  };
  line("state", RolloutStateName(state_));
  line("epoch", counters_.epochs);
  line("now_us", now_);
  line("shards", shards_.size());
  line("active", ActiveShards());
  std::size_t quarantined = 0, wave = 0, pending = 0;
  for (const auto& sp : shards_) {
    if (sp->quarantined) ++quarantined;
    if (sp->pre_wave) ++wave;
    if (RollingBack(*sp)) ++pending;
  }
  line("quarantined", quarantined);
  line("wave", wave);
  line("rollback_pending", pending);
  if (rollout_.has_value()) {
    line("stage", rollout_->stage);
    line("stage_frac", Fmt(StageFraction(rollout_->stage)));
    line("rollout_epochs", rollout_->epochs);
    line("healthy_streak", rollout_->healthy_streak);
  }
  line("rollouts", counters_.rollouts);
  line("stage_promotions", counters_.stage_promotions);
  line("promoted", counters_.promoted);
  line("rolled_back", counters_.rolled_back);
  line("aborted", counters_.aborted);
  line("gate_trips", counters_.gate_trips);
  line("quorum_misses", counters_.quorum_misses);
  line("quarantines", counters_.quarantines);
  line("releases", counters_.releases);
  line("crash_injections", counters_.crash_injections);
  line("telemetry_losses", counters_.telemetry_losses);
  line("rollback_retries", counters_.rollback_retries);
  line("rollback_failures", counters_.rollback_failures);
  line("last_rollout", last_rollout_result_);
  if (!init_error_.empty()) line("init_error", init_error_);
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    out << "shard " << s.index << " state "
        << lifecycle::SupervisorStateName(s.supervisor.state()) << " mode "
        << (s.quarantined ? "quarantined" : "active") << " wave "
        << (s.pre_wave ? 1 : 0) << " saving " << Fmt(s.saving) << " cpu "
        << Fmt(s.cpu_overhead) << " crashes " << s.supervisor.counters().crashes
        << " restores " << s.supervisor.counters().restores << '\n';
  }
  return out.str();
}

std::string FleetController::QuarantineText() const {
  std::string out;
  for (const auto& sp : shards_)
    if (sp->quarantined) out += "add " + std::to_string(sp->index) + "\n";
  return out;
}

bool FleetController::WriteQuarantine(std::string_view text,
                                      std::string* error) {
  enum class OpKind : std::uint8_t { kAdd, kRelease, kClear };
  struct Op {
    OpKind kind;
    std::size_t index;
  };
  std::vector<Op> ops;
  LineCursor lines(text);
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = LineError(lines.line_no(), message);
    return false;
  };
  std::string_view raw;
  while (lines.Next(&raw)) {
    const std::vector<std::string_view> tokens =
        SplitWhitespace(StripComment(raw));
    if (tokens.empty()) continue;
    const std::string key(tokens[0]);
    if (key == "clear") {
      if (tokens.size() > 1) return fail("trailing tokens after clear");
      ops.push_back({OpKind::kClear, 0});
      continue;
    }
    if (key != "add" && key != "release")
      return fail("unknown directive '" + key + "' (want add|release|clear)");
    const auto index = tokens.size() > 1 ? ParseU64(tokens[1]) : std::nullopt;
    if (!index) return fail(key + " needs a shard index");
    if (*index >= shards_.size())
      return fail("shard index " + std::to_string(*index) + " out of range (" +
                  std::to_string(shards_.size()) + " shards)");
    if (tokens.size() > 2) return fail("trailing tokens after " + key);
    ops.push_back({key == "add" ? OpKind::kAdd : OpKind::kRelease, *index});
  }
  // All-or-nothing: apply only after the whole text parsed. An operator
  // release of a still-degraded shard sticks for this epoch only — the
  // quarantine policy re-evaluates on the next RunEpoch.
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kAdd:
        if (!shards_[op.index]->quarantined)
          Quarantine(*shards_[op.index]);
        break;
      case OpKind::kRelease:
        if (shards_[op.index]->quarantined) Release(*shards_[op.index]);
        break;
      case OpKind::kClear:
        for (auto& sp : shards_)
          if (sp->quarantined) Release(*sp);
        break;
    }
  }
  return true;
}

}  // namespace daos::fleet
