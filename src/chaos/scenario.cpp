#include "chaos/scenario.hpp"

#include <map>
#include <memory>
#include <sstream>

#include "fleet/controller.hpp"
#include "governor/governor.hpp"
#include "lifecycle/supervisor.hpp"
#include "sim/address_space.hpp"
#include "sim/system.hpp"
#include "sim/tier.hpp"
#include "util/hash.hpp"
#include "util/units.hpp"

namespace daos::chaos {

namespace {

constexpr Addr kBase = 0x10000000;
constexpr std::uint64_t kHeap = 48 * MiB;
constexpr std::uint64_t kHot = 8 * MiB;
constexpr SimTimeUs kSlice = 250 * kUsPerMs;
constexpr SimTimeUs kQuietTail = 1500 * kUsPerMs;

/// Collects oracle outcomes; one entry per oracle name, first failure
/// wins (later slices cannot un-fail an oracle).
class Oracles {
 public:
  void Check(std::string_view name, bool pass, const std::string& detail) {
    const auto it = index_.find(name);
    std::size_t i;
    if (it == index_.end()) {
      i = checks_.size();
      checks_.push_back({std::string(name), true, ""});
      index_.emplace(checks_.back().name, i);
    } else {
      i = it->second;
    }
    if (!pass && checks_[i].pass) {
      checks_[i].pass = false;
      checks_[i].detail = detail;
    }
  }

  std::vector<OracleCheck> Take() { return std::move(checks_); }

 private:
  std::vector<OracleCheck> checks_;
  std::map<std::string, std::size_t, std::less<>> index_;
};

bool SameSpec(const fault::FaultSpec& a, const fault::FaultSpec& b) {
  return a.probability == b.probability && a.every_nth == b.every_nth &&
         a.once_at == b.once_at;
}

/// Realizes campaign windows on a plane: at each slice boundary, arms the
/// points whose effective spec changed and disarms the ones whose windows
/// closed. Only campaign-owned points are touched, so scenario-internal
/// arming (the lifecycle forced crash) survives window churn.
class WindowArming {
 public:
  WindowArming(const Campaign& campaign, fault::FaultPlane& plane)
      : campaign_(&campaign), plane_(&plane) {}

  void Apply(SimTimeUs now) {
    std::map<std::string_view, const fault::FaultSpec*> want;
    for (const CampaignEntry& e : campaign_->entries) {
      if (e.ActiveAt(now)) want[e.point] = &e.spec;  // last entry wins
    }
    for (auto it = armed_.begin(); it != armed_.end();) {
      if (want.find(it->first) == want.end()) {
        plane_->Point(it->first).Disarm();
        it = armed_.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& [point, spec] : want) {
      const auto it = armed_.find(point);
      if (it == armed_.end() || !SameSpec(it->second, *spec)) {
        plane_->Arm(point, *spec);
        armed_[std::string(point)] = *spec;
      }
    }
  }

  void DisarmAllOwned() {
    for (const auto& [point, spec] : armed_) plane_->Point(point).Disarm();
    armed_.clear();
  }

 private:
  const Campaign* campaign_;
  fault::FaultPlane* plane_;
  std::map<std::string, fault::FaultSpec, std::less<>> armed_;
};

std::uint64_t CumFires(const fault::FaultPlane& plane, std::string_view name) {
  const fault::FaultPoint* point = plane.Find(name);
  return point == nullptr ? 0 : point->cumulative_fires();
}

std::uint64_t TotalFires(const fault::FaultPlane& plane) {
  std::uint64_t sum = 0;
  for (const std::string& name : plane.Names()) {
    sum += CumFires(plane, name);
  }
  return sum;
}

std::string U64Detail(std::string_view what, std::uint64_t lhs,
                      std::uint64_t rhs) {
  std::ostringstream out;
  out << what << ": " << lhs << " vs " << rhs;
  return out.str();
}

lifecycle::SupervisorConfig FastSupervisorConfig() {
  lifecycle::SupervisorConfig config;
  config.checkpoint_interval = 500 * kUsPerMs;
  config.heartbeat_interval = 50 * kUsPerMs;
  config.heartbeat_timeout = 150 * kUsPerMs;
  config.restart_backoff = 50 * kUsPerMs;
  config.max_backoff_exp = 2;
  config.restart_budget = 3;
  config.restart_budget_window = 2 * kUsPerSec;
  return config;
}

void CheckGovernorQuota(Oracles& oracles, const damos::SchemesEngine& engine) {
  for (const damos::Scheme& scheme : engine.schemes()) {
    const governor::QuotaSpec& quota = scheme.policy().quota;
    if (quota.sz_bytes == 0) continue;
    const governor::QuotaState& qs = scheme.runtime().quota;
    oracles.Check(
        "governor.window_quota", qs.charged_sz <= quota.sz_bytes,
        U64Detail("in-flight charge exceeds quota (charged vs quota)",
                  qs.charged_sz, quota.sz_bytes));
  }
}

void CheckTierConservation(Oracles& oracles, const sim::Machine& machine,
                           const sim::AddressSpace& space, SimTimeUs now) {
  std::uint64_t sum = 0;
  const std::size_t tiers = machine.tier_geometry().size();
  for (std::size_t t = 0; t < tiers; ++t) {
    sum += machine.TierUsedPages(static_cast<std::uint16_t>(t));
  }
  oracles.Check("tier.page_conservation", sum == space.resident_pages(),
                U64Detail("tier charges vs resident pages at t=" +
                              FormatDuration(now),
                          sum, space.resident_pages()));
  for (std::size_t t = 0; t + 1 < tiers; ++t) {
    const std::uint64_t used =
        machine.TierUsedPages(static_cast<std::uint16_t>(t)) * kPageSize;
    oracles.Check("tier.capacity_bound",
                  used <= machine.tier_geometry().tiers[t].capacity_bytes,
                  U64Detail("tier " + std::to_string(t) + " over capacity",
                            used,
                            machine.tier_geometry().tiers[t].capacity_bytes));
  }
}

void CheckRestoreRoundTrip(Oracles& oracles,
                           lifecycle::KdamondSupervisor& supervisor) {
  const std::string before = supervisor.CaptureCheckpointText();
  std::string error;
  if (!supervisor.RestoreFromText(before, &error)) {
    oracles.Check("lifecycle.restore_roundtrip", false,
                  "own checkpoint rejected: " + error);
    return;
  }
  const std::string after = supervisor.CaptureCheckpointText();
  oracles.Check("lifecycle.restore_roundtrip", after == before,
                "capture->restore->capture diverged (" +
                    std::to_string(before.size()) + " vs " +
                    std::to_string(after.size()) + " bytes)");
}

void CheckTelemetryConservation(Oracles& oracles,
                                const fault::FaultPlane& plane,
                                const sim::System& system,
                                const lifecycle::KdamondSupervisor& sup) {
  const sim::MachineCounters& mc = system.machine().counters();
  const auto equal = [&](std::string_view point, std::uint64_t counter,
                         const char* family) {
    const std::uint64_t fires = CumFires(plane, point);
    oracles.Check("telemetry.conservation", fires == counter,
                  U64Detail(std::string(point) + " fires vs " + family,
                            fires, counter));
  };
  equal(fault::kSwapWriteError, mc.swap_write_errors, "swap_write_errors");
  equal(fault::kThpCollapseFail, mc.thp_collapse_errors,
        "thp_collapse_errors");
  equal(fault::kTierMigrateFail, mc.tier_migrate_fails, "tier_migrate_fails");
  equal(fault::kAllocFrameFail, mc.alloc_stalls, "alloc_stalls");
  equal(fault::kDaemonOverrun, system.daemon_overruns(), "daemon_overruns");
  // slot_exhausted merges with genuine device-full events in
  // failed_evictions, so only the lower bound is exact.
  oracles.Check("telemetry.conservation",
                mc.failed_evictions >= CumFires(plane, fault::kSwapSlotExhausted),
                U64Detail("failed_evictions below slot_exhausted fires",
                          mc.failed_evictions,
                          CumFires(plane, fault::kSwapSlotExhausted)));
  // Every injected kdamond death is eventually detected; at most one can
  // still be in its heartbeat-detection window when the run ends.
  const std::uint64_t crash_fires = CumFires(plane, fault::kDaemonCrash);
  const std::uint64_t detected = sup.counters().crashes;
  oracles.Check("telemetry.conservation",
                crash_fires >= detected && crash_fires - detected <= 1,
                U64Detail("daemon.crash fires vs detected crashes",
                          crash_fires, detected));
}

// ---- single-system scenarios (workload / tiered / lifecycle) --------------

ScenarioResult RunSystemScenario(const Campaign& campaign, bool tiered,
                                 bool idle_heap) {
  Oracles oracles;
  ScenarioResult result;
  const SimTimeUs horizon = ScenarioHorizon(campaign.scenario);

  fault::FaultPlane plane(campaign.seed);
  sim::System system(
      sim::MachineSpec{"chaos", 4, 3.0, 4 * GiB}, sim::SwapConfig::Zram(),
      tiered || idle_heap ? sim::ThpMode::kNever : sim::ThpMode::kAlways);
  system.SetFaultPlane(&plane);

  if (tiered) {
    sim::TierGeometry geo;
    std::string error;
    if (!sim::ParseTierGeometry(
            "dram 8M\ncxl 24M lat=0.6\nfile 64M lat=2.0 bw=1G\n", &geo,
            &error) ||
        !system.machine().SetTierGeometry(geo, &error)) {
      oracles.Check("scenario.setup", false, "tier geometry: " + error);
      result.checks = oracles.Take();
      return result;
    }
  }

  sim::AddressSpace space(1, &system.machine(), 3.0);
  space.Map(kBase, kHeap, "heap");

  lifecycle::KdamondSupervisor supervisor(FastSupervisorConfig());
  supervisor.AttachTo(system, {&space});

  const char* schemes =
      tiered ? "min max 1 max min max migrate_hot quota_sz=16M "
               "quota_reset_ms=500\n"
               "min max min min 1s max migrate_cold quota_sz=16M "
               "quota_reset_ms=500\n"
             : "min max min min 1s max pageout quota_sz=8M "
               "quota_reset_ms=500\n";
  std::string error;
  if (!supervisor.InstallSchemesFromText(schemes, &error)) {
    oracles.Check("scenario.setup", false, "schemes: " + error);
    result.checks = oracles.Take();
    return result;
  }

  // The lifecycle scenario forces exactly one silent kdamond death unless
  // the campaign already storms daemon.crash itself — recovery must then
  // show up in the restore counters.
  bool forced_crash = false;
  if (idle_heap) {
    bool campaign_has_crash = false;
    for (const CampaignEntry& e : campaign.entries) {
      if (e.point == fault::kDaemonCrash) campaign_has_crash = true;
    }
    if (!campaign_has_crash) {
      fault::FaultSpec spec;
      spec.once_at = 400;  // ~400 ms in (one live check per quantum)
      plane.Arm(fault::kDaemonCrash, spec);
      forced_crash = true;
    }
  }

  space.TouchRange(kBase, kBase + kHeap, true, 0);
  if (!idle_heap) {
    // Re-touch the hot window every sampling interval. The hot range sits
    // at the *end* of the heap so a tiered run has real promotion work
    // (populate order leaves it in the elastic file tier).
    struct TouchState {
      sim::AddressSpace* space;
      SimTimeUs next = 0;
    };
    auto touch = std::make_shared<TouchState>();
    touch->space = &space;
    system.RegisterDaemon([touch](SimTimeUs now, SimTimeUs) -> double {
      if (now >= touch->next) {
        touch->space->TouchRange(kBase + kHeap - kHot, kBase + kHeap, false,
                                 now);
        touch->next = now + 5 * kUsPerMs;
      }
      return 0.0;
    });
  }

  WindowArming arming(campaign, plane);
  fault::FaultPoint& synthetic = plane.Point(kSyntheticPoint);
  bool synthetic_fired = false;

  std::size_t slice_idx = 0;
  for (SimTimeUs t = 0; t < horizon; t += kSlice, ++slice_idx) {
    arming.Apply(t);
    if (synthetic.Check()) synthetic_fired = true;
    system.Run(kSlice);
    CheckGovernorQuota(oracles, supervisor.engine());
    if (tiered) {
      CheckTierConservation(oracles, system.machine(), space, system.Now());
    }
    // Periodic in-place restore: a checkpoint of a live stack restored
    // into itself must be a bit-identical no-op.
    if (slice_idx % 4 == 3 && supervisor.alive()) {
      CheckRestoreRoundTrip(oracles, supervisor);
    }
  }

  // Quiet tail: all chaos off. The stack must come back — a supervisor
  // still dead (or a tier ledger still broken) after a fault-free
  // 1.5 s is a containment bug, not degradation.
  arming.DisarmAllOwned();
  plane.DisarmAll();
  system.Run(kQuietTail);

  oracles.Check("lifecycle.progress", supervisor.alive(),
                "supervisor not alive after fault-free tail (state " +
                    std::string(lifecycle::SupervisorStateName(
                        supervisor.state())) +
                    ")");
  if (forced_crash) {
    const lifecycle::LifecycleCounters& lc = supervisor.counters();
    oracles.Check("lifecycle.recovery",
                  lc.restores + lc.cold_restarts >= 1,
                  "forced kdamond death never recovered");
  }
  CheckGovernorQuota(oracles, supervisor.engine());
  if (tiered) {
    CheckTierConservation(oracles, system.machine(), space, system.Now());
  }
  CheckTelemetryConservation(oracles, plane, system, supervisor);
  oracles.Check("chaos.synthetic", !synthetic_fired,
                "synthetic probe point fired");

  Fnv1a digest;  // stable across platforms: tests quote repro signatures
  const sim::MachineCounters& mc = system.machine().counters();
  digest.Mix(mc.reclaimed_pages);
  digest.Mix(mc.reclaim_scans);
  digest.Mix(mc.failed_evictions);
  digest.Mix(mc.khugepaged_collapses);
  digest.Mix(mc.swap_write_errors);
  digest.Mix(mc.alloc_stalls);
  digest.Mix(mc.thp_collapse_errors);
  digest.Mix(mc.tier_promoted_pages);
  digest.Mix(mc.tier_demoted_pages);
  digest.Mix(mc.tier_migrate_fails);
  digest.Mix(space.resident_pages());
  digest.Mix(space.swapped_pages());
  digest.Mix(system.oom_kills());
  digest.Mix(system.daemon_overruns());
  for (const damos::Scheme& s : supervisor.engine().schemes()) {
    digest.Mix(s.stats().nr_tried);
    digest.Mix(s.stats().sz_tried);
    digest.Mix(s.stats().nr_applied);
    digest.Mix(s.stats().sz_applied);
    digest.Mix(s.stats().nr_errors);
  }
  const lifecycle::LifecycleCounters& lc = supervisor.counters();
  digest.Mix(lc.commits);
  digest.Mix(lc.checkpoints);
  digest.Mix(lc.restores);
  digest.Mix(lc.cold_restarts);
  digest.Mix(lc.crashes);
  digest.Mix(lc.degraded_entries);
  digest.Mix(plane.StatusText());

  result.signature = digest.value();
  result.faults_fired = TotalFires(plane);
  result.checks = oracles.Take();
  return result;
}

// ---- fleet scenario -------------------------------------------------------

ScenarioResult RunFleetScenario(const Campaign& campaign) {
  Oracles oracles;
  ScenarioResult result;

  fleet::FleetConfig config;
  config.nr_shards = 4;
  config.workload.nr_processes = 6;
  config.workload.rss_per_process = 16 * MiB;
  config.workload.cold_touch_period_s = 0;
  config.machine = {"chaos-fleet", 4, 3.0, GiB};
  config.swap = sim::SwapConfig::Zram();
  config.quantum = 5 * kUsPerMs;
  config.epoch = kSlice;
  config.seed = campaign.seed;
  config.use_env_faults = false;
  config.supervisor = FastSupervisorConfig();
  fleet::FleetController fleet(config);

  // Each shard plane realizes the campaign windows on its own, so a point
  // is re-armed (and its stream rewound) only when its own window opens or
  // closes. Per-shard streams stay decorrelated by the plane seeds.
  std::vector<WindowArming> arming;
  arming.reserve(fleet.nr_shards());
  for (std::size_t i = 0; i < fleet.nr_shards(); ++i) {
    arming.emplace_back(campaign, fleet.plane(i));
  }

  bool synthetic_fired = false;
  const auto probe_synthetic = [&] {
    if (fleet.plane(0).Point(kSyntheticPoint).Check()) {
      synthetic_fired = true;
    }
  };

  // Rollout staged after a short warmup. A crash storm can legitimately
  // leave every shard quarantined — the controller *should* refuse to
  // start then, so a rejected start is retried, never a violation. Once a
  // start is accepted, though, the rollout must reach a terminal state
  // within a budget far beyond its own timeout_epochs: anything else is an
  // epoch deadlock.
  const char* rollout_text =
      "canary 0.25\n"
      "ramp 0.5 1.0\n"
      "gate_epochs 1\n"
      "timeout_epochs 16\n"
      "scheme min max min min 4s max pageout quota_sz=32M "
      "quota_reset_ms=500\n";
  constexpr std::uint32_t kWarmupEpochs = 4;
  constexpr std::uint32_t kRolloutBudget = 40;  // epochs after acceptance
  constexpr std::uint32_t kMaxEpochs = 96;

  bool rollout_started = false;
  std::uint32_t start_epoch = 0;
  bool terminal = false;
  for (std::uint32_t epoch = 0; epoch < kMaxEpochs; ++epoch) {
    for (WindowArming& shard : arming) shard.Apply(fleet.Now());
    probe_synthetic();
    if (!rollout_started && epoch >= kWarmupEpochs) {
      std::string error;
      if (fleet.StartRolloutFromText(rollout_text, &error)) {
        rollout_started = true;
        start_epoch = epoch;
      }
    }
    fleet.RunEpoch();
    if (rollout_started) {
      const fleet::RolloutState state = fleet.rollout_state();
      const bool done = state == fleet::RolloutState::kPromoted ||
                        state == fleet::RolloutState::kRolledBack ||
                        state == fleet::RolloutState::kAborted;
      if (done && !fleet.rollout_active()) {
        terminal = true;
        break;
      }
      if (epoch - start_epoch >= kRolloutBudget) break;  // deadlocked
    }
  }
  oracles.Check("fleet.progress", !rollout_started || terminal,
                "rollout reached no terminal state within " +
                    std::to_string(kRolloutBudget) + " epochs (state " +
                    std::string(fleet::RolloutStateName(
                        fleet.rollout_state())) +
                    ")");

  // Quiet tail: chaos off, a few epochs for detections to land.
  std::string error;
  fleet.ConfigureFaults("reset", &error);
  for (int i = 0; i < 6; ++i) fleet.RunEpoch();

  // Fleet counter conservation: every controller-level injection is
  // visible in exactly one counter.
  const fleet::FleetCounters& fc = fleet.counters();
  std::uint64_t crash_fires = 0;
  std::uint64_t loss_fires = 0;
  std::uint64_t rollback_fires = 0;
  std::uint64_t total_fires = 0;
  std::size_t quarantined = 0;
  for (std::size_t i = 0; i < fleet.nr_shards(); ++i) {
    const fault::FaultPlane& plane = fleet.plane(i);
    crash_fires += CumFires(plane, fault::kFleetShardCrash);
    loss_fires += CumFires(plane, fault::kFleetTelemetryLoss);
    rollback_fires += CumFires(plane, fault::kFleetRollbackFail);
    total_fires += TotalFires(plane);
    if (fleet.quarantined(i)) ++quarantined;
  }
  oracles.Check("fleet.conservation", crash_fires == fc.crash_injections,
                U64Detail("shard_crash fires vs crash_injections",
                          crash_fires, fc.crash_injections));
  oracles.Check("fleet.conservation", loss_fires == fc.telemetry_losses,
                U64Detail("telemetry_loss fires vs telemetry_losses",
                          loss_fires, fc.telemetry_losses));
  // Genuine restore failures can add retries beyond the injected ones.
  oracles.Check("fleet.conservation",
                fc.rollback_retries >= rollback_fires,
                U64Detail("rollback retries below injected failures",
                          fc.rollback_retries, rollback_fires));
  oracles.Check("fleet.accounting",
                fc.promoted + fc.rolled_back + fc.aborted <= fc.rollouts,
                U64Detail("terminal rollouts vs started",
                          fc.promoted + fc.rolled_back + fc.aborted,
                          fc.rollouts));
  oracles.Check("fleet.accounting", quarantined <= fleet.nr_shards(),
                "quarantine set larger than the fleet");
  oracles.Check("chaos.synthetic", !synthetic_fired,
                "synthetic probe point fired");

  Fnv1a digest;  // stable across platforms: tests quote repro signatures
  digest.Mix(fleet.StatusText());
  digest.Mix(fleet.QuarantineText());
  digest.Mix(fc.epochs);
  digest.Mix(fc.rollouts);
  digest.Mix(fc.stage_promotions);
  digest.Mix(fc.promoted);
  digest.Mix(fc.rolled_back);
  digest.Mix(fc.aborted);
  digest.Mix(fc.gate_trips);
  digest.Mix(fc.quorum_misses);
  digest.Mix(fc.quarantines);
  digest.Mix(fc.releases);
  digest.Mix(fc.crash_injections);
  digest.Mix(fc.telemetry_losses);
  digest.Mix(fc.rollback_retries);
  digest.Mix(fc.rollback_failures);
  for (std::size_t i = 0; i < fleet.nr_shards(); ++i) {
    digest.Mix(fleet.plane(i).StatusText());
  }

  result.signature = digest.value();
  result.faults_fired = total_fires;
  result.checks = oracles.Take();
  return result;
}

}  // namespace

std::vector<std::string> ScenarioResult::Violations() const {
  std::vector<std::string> out;
  for (const OracleCheck& c : checks) {
    if (!c.pass) out.push_back(c.name + ": " + c.detail);
  }
  return out;
}

const std::vector<std::string_view>& ScenarioNames() {
  static const std::vector<std::string_view> kNames = {
      "workload", "tiered", "lifecycle", "fleet"};
  return kNames;
}

bool KnownScenario(std::string_view name) {
  for (const std::string_view s : ScenarioNames()) {
    if (s == name) return true;
  }
  return false;
}

SimTimeUs ScenarioHorizon(std::string_view name) {
  if (name == "tiered") return 6 * kUsPerSec;
  if (name == "lifecycle") return 6 * kUsPerSec;
  if (name == "fleet") return 6 * kUsPerSec;
  return 4 * kUsPerSec;  // workload
}

ScenarioResult RunScenario(const Campaign& campaign) {
  if (campaign.scenario == "workload") {
    return RunSystemScenario(campaign, /*tiered=*/false, /*idle_heap=*/false);
  }
  if (campaign.scenario == "tiered") {
    return RunSystemScenario(campaign, /*tiered=*/true, /*idle_heap=*/false);
  }
  if (campaign.scenario == "lifecycle") {
    return RunSystemScenario(campaign, /*tiered=*/false, /*idle_heap=*/true);
  }
  if (campaign.scenario == "fleet") {
    return RunFleetScenario(campaign);
  }
  ScenarioResult result;
  result.checks.push_back({"scenario.known", false,
                           "unknown scenario '" + campaign.scenario + "'"});
  return result;
}

}  // namespace daos::chaos
