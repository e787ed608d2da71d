// Lifecycle supervisor tests (src/lifecycle): transactional commit,
// crash-restart determinism, crash-loop containment, and the two
// restart-semantics satellites (governor quota carry, recorder tail).
//
// Every rig here installs its *own* fault plane, replacing any env-armed
// one (DAOS_FAULTS), so the golden comparisons stay deterministic under
// the CI fault-stress job. The one exception, SurvivesEnvFaultInjection,
// deliberately keeps the env plane and only asserts invariants that hold
// under arbitrary daemon.crash injection.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "lifecycle/checkpoint.hpp"
#include "lifecycle/supervisor.hpp"
#include "sim/address_space.hpp"
#include "sim/system.hpp"
#include "util/units.hpp"

namespace {

using namespace daos;

constexpr Addr kBase = 1 * GiB;
constexpr std::uint64_t kHeap = 64 * MiB;

lifecycle::SupervisorConfig FastCrashConfig() {
  lifecycle::SupervisorConfig config;
  config.checkpoint_interval = 500 * kUsPerMs;
  config.heartbeat_interval = 50 * kUsPerMs;
  config.heartbeat_timeout = 150 * kUsPerMs;
  config.restart_backoff = 50 * kUsPerMs;
  config.max_backoff_exp = 2;
  return config;
}

/// One supervised kdamond over an anonymous heap. The member order matters:
/// the plane outlives the system (SetFaultPlane contract) and the space
/// outlives the supervisor's primitives.
struct Rig {
  fault::FaultPlane plane;
  sim::System system;
  sim::AddressSpace space;
  lifecycle::KdamondSupervisor supervisor;

  explicit Rig(const lifecycle::SupervisorConfig& config = {},
               bool keep_env_plane = false)
      : system(sim::MachineSpec{"lc", 4, 3.0, 4 * GiB},
               sim::SwapConfig::Zram()),
        space(1, &system.machine(), 3.0),
        supervisor(config) {
    space.Map(kBase, kHeap, "heap");
    supervisor.AttachTo(system, {&space});
    if (!keep_env_plane) system.SetFaultPlane(&plane);
  }

  void InstallOrDie(const char* schemes) {
    std::string error;
    ASSERT_TRUE(supervisor.InstallSchemesFromText(schemes, &error)) << error;
  }

  lifecycle::Checkpoint Snapshot() {
    return lifecycle::CaptureCheckpoint(supervisor.context(),
                                        supervisor.engine(), nullptr,
                                        system.Now());
  }
};

std::uint32_t MaxRegionAge(const lifecycle::Checkpoint& cp) {
  std::uint32_t max_age = 0;
  for (const lifecycle::CheckpointTarget& t : cp.targets)
    for (const damon::Region& r : t.regions)
      if (r.age > max_age) max_age = r.age;
  return max_age;
}

TEST(LifecycleCommitTest, AppliesAtWindowBoundaryAndCarriesState) {
  Rig rig;
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie("min max min min min max stat");
  rig.system.Run(2 * kUsPerSec);

  const std::uint64_t tried_before =
      rig.supervisor.engine().schemes()[0].stats().nr_tried;
  ASSERT_GT(tried_before, 0u);

  // Same scheme bounds, new quota clause, doubled aggregation interval.
  ASSERT_TRUE(rig.supervisor.CommitFromText(
      "attrs 5000 200000 1000000 10 1000\n"
      "scheme min max min min min max stat quota_sz=16M\n",
      nullptr));
  EXPECT_TRUE(rig.supervisor.commit_pending());
  EXPECT_EQ(rig.supervisor.state(), lifecycle::SupervisorState::kDraining);
  EXPECT_EQ(rig.supervisor.last_commit_result(), "staged");

  // One old-size window is enough to reach the boundary where it applies.
  rig.system.Run(200 * kUsPerMs);
  EXPECT_FALSE(rig.supervisor.commit_pending());
  EXPECT_EQ(rig.supervisor.state(), lifecycle::SupervisorState::kRunning);
  EXPECT_EQ(rig.supervisor.counters().commits, 1u);
  EXPECT_NE(rig.supervisor.last_commit_result().find("committed: 1 carried"),
            std::string::npos)
      << rig.supervisor.last_commit_result();
  EXPECT_EQ(rig.supervisor.context().attrs().aggregation_interval,
            200 * kUsPerMs);

  // Carried by bounds identity: stats survived, and so did the regions'
  // learned ages (a cold re-install would have reset both to zero).
  EXPECT_GE(rig.supervisor.engine().schemes()[0].stats().nr_tried,
            tried_before);
  EXPECT_GE(MaxRegionAge(rig.Snapshot()), 5u);
  // The monitor itself was never rebuilt: its window count kept going.
  EXPECT_GE(rig.supervisor.context().counters().aggregations, 20u);
}

TEST(LifecycleCommitTest, RejectedBundleLeavesStateBitIdentical) {
  Rig rig;
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie("min max min min 1s max pageout quota_sz=8M");
  rig.system.Run(2 * kUsPerSec);

  const std::string before = rig.supervisor.CaptureCheckpointText();

  std::string error;
  EXPECT_FALSE(rig.supervisor.CommitFromText(
      "attrs 5000 1000 1000000 10 1000\n", &error));
  EXPECT_NE(error.find("aggregation interval below sampling"),
            std::string::npos)
      << error;
  EXPECT_FALSE(rig.supervisor.CommitFromText(
      "scheme min max min min min max frobnicate\n", &error));

  EXPECT_FALSE(rig.supervisor.commit_pending());
  EXPECT_EQ(rig.supervisor.state(), lifecycle::SupervisorState::kRunning);
  EXPECT_EQ(rig.supervisor.counters().commits, 0u);
  EXPECT_EQ(rig.supervisor.counters().rollbacks, 2u);
  EXPECT_NE(rig.supervisor.last_commit_result().find("rejected"),
            std::string::npos);

  // The acceptance bar: a rejected bundle changes *nothing*. The full
  // serialized stack state — regions, rng, deadlines, stats, governor
  // charges, recorder tail — is byte-identical.
  EXPECT_EQ(before, rig.supervisor.CaptureCheckpointText());
}

TEST(LifecycleCrashTest, RestartFromCheckpointMatchesUninterruptedRun) {
  // Identical idle-heap rigs; the crashy one loses its kdamond at ~1.7s,
  // between the 1.5s periodic checkpoint and the 2.0s window. Detection
  // (stale heartbeat) plus backoff restarts it around 2.0s; the restored
  // deadlines then replay the lost windows. Over never-touched memory the
  // replay observes the exact access pattern (none) the golden run saw
  // live, so the monitoring state reconverges bit-identically.
  lifecycle::SupervisorConfig config = FastCrashConfig();
  Rig golden(config);
  Rig crashy(config);
  golden.InstallOrDie("min max min min min max stat");
  crashy.InstallOrDie("min max min min min max stat");

  fault::FaultSpec crash;
  crash.once_at = 1700;  // checks happen once per live 1ms quantum
  crashy.plane.Arm(fault::kDaemonCrash, crash);

  golden.system.Run(4 * kUsPerSec);
  crashy.system.Run(4 * kUsPerSec);

  EXPECT_EQ(golden.supervisor.counters().crashes, 0u);
  EXPECT_EQ(crashy.supervisor.counters().crashes, 1u);
  EXPECT_EQ(crashy.supervisor.counters().restores, 1u);
  EXPECT_EQ(crashy.supervisor.counters().cold_restarts, 0u);
  EXPECT_TRUE(crashy.supervisor.alive());
  EXPECT_EQ(crashy.supervisor.state(), lifecycle::SupervisorState::kRunning);

  // Bit-identical reconvergence, recorder timestamps included: the replay
  // services the lost sample deadlines at their virtual times, so even the
  // snapshot history is indistinguishable from the uninterrupted run.
  EXPECT_EQ(golden.supervisor.CaptureCheckpointText(),
            crashy.supervisor.CaptureCheckpointText());
}

TEST(LifecycleCrashTest, NoCheckpointMeansColdRestart) {
  lifecycle::SupervisorConfig config = FastCrashConfig();
  config.checkpoint_interval = 0;  // periodic capture disabled
  Rig rig(config);
  rig.InstallOrDie("min max min min min max stat");

  fault::FaultSpec crash;
  crash.once_at = 1000;
  rig.plane.Arm(fault::kDaemonCrash, crash);

  rig.system.Run(3 * kUsPerSec);
  EXPECT_EQ(rig.supervisor.counters().crashes, 1u);
  EXPECT_EQ(rig.supervisor.counters().restores, 0u);
  EXPECT_EQ(rig.supervisor.counters().cold_restarts, 1u);
  EXPECT_TRUE(rig.supervisor.alive());
  // The configuration survives a checkpointless crash even though the
  // learned state does not: the scheme set is back, but the monitor only
  // has the windows since the ~1.2s restart, not the full run's ~29.
  ASSERT_EQ(rig.supervisor.engine().schemes().size(), 1u);
  EXPECT_GT(rig.supervisor.engine().schemes()[0].stats().nr_tried, 0u);
  EXPECT_GE(rig.supervisor.context().counters().aggregations, 10u);
  EXPECT_LE(rig.supervisor.context().counters().aggregations, 20u);
}

TEST(LifecycleCrashTest, CrashLoopEntersDegradedThenQuietWindowRearms) {
  lifecycle::SupervisorConfig config = FastCrashConfig();
  config.restart_budget = 2;
  config.restart_budget_window = 3 * kUsPerSec;
  Rig rig(config);
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie("min max min min min max stat");

  // Every check fires: each restart dies on its first step back.
  fault::FaultSpec crash;
  crash.every_nth = 1;
  rig.plane.Arm(fault::kDaemonCrash, crash);

  rig.system.Run(6 * kUsPerSec);
  EXPECT_GE(rig.supervisor.counters().crashes, 3u);
  EXPECT_GE(rig.supervisor.counters().degraded_entries, 1u);
  EXPECT_TRUE(rig.supervisor.engine().disarmed());

  // Quiet: faults stop, the budget window drains, schemes are re-armed.
  rig.plane.DisarmAll();
  rig.system.Run(6 * kUsPerSec);
  EXPECT_TRUE(rig.supervisor.alive());
  EXPECT_EQ(rig.supervisor.state(), lifecycle::SupervisorState::kRunning);
  EXPECT_FALSE(rig.supervisor.engine().disarmed());
}

TEST(LifecycleRestoreTest, GovernorQuotaChargeSurvivesRestore) {
  // The anti-laundering satellite: a crash/restore cycle must not refill
  // the quota window. The reset interval is far longer than the run so the
  // whole pageout budget lives in one window.
  Rig rig;
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie(
      "min max min min 1s max pageout quota_sz=2M quota_reset_ms=60000");
  rig.system.Run(4 * kUsPerSec);

  const governor::QuotaState before =
      rig.supervisor.engine().schemes()[0].runtime().quota;
  ASSERT_GT(before.charged_sz, 0u);

  const std::string text = rig.supervisor.CaptureCheckpointText();
  std::string error;
  ASSERT_TRUE(rig.supervisor.RestoreFromText(text, &error)) << error;

  const governor::QuotaState after =
      rig.supervisor.engine().schemes()[0].runtime().quota;
  EXPECT_EQ(after.charged_sz, before.charged_sz);
  EXPECT_EQ(after.window_start, before.window_start);
  EXPECT_EQ(after.total_charged_sz, before.total_charged_sz);

  // The restored window keeps honoring the cap.
  rig.system.Run(2 * kUsPerSec);
  EXPECT_LE(rig.supervisor.engine().schemes()[0].runtime().quota.charged_sz,
            2 * MiB);
}

TEST(LifecycleRestoreTest, RecorderTailSurvivesRestore) {
  // Rebuilding the stack builds a fresh recorder: the restore path must
  // re-install the checkpoint's history and keep appending after it.
  Rig rig;
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie("min max min min min max stat");
  rig.system.Run(3 * kUsPerSec);

  const std::size_t count_before = rig.supervisor.recorder().snapshots().size();
  ASSERT_GT(count_before, 2u);
  const SimTimeUs first_at = rig.supervisor.recorder().snapshots().front().at;
  const SimTimeUs last_at = rig.supervisor.recorder().snapshots().back().at;

  const std::string text = rig.supervisor.CaptureCheckpointText();
  std::string error;
  ASSERT_TRUE(rig.supervisor.RestoreFromText(text, &error)) << error;

  const auto& restored = rig.supervisor.recorder().snapshots();
  ASSERT_EQ(restored.size(), count_before);
  EXPECT_EQ(restored.front().at, first_at);
  EXPECT_EQ(restored.back().at, last_at);

  rig.system.Run(1 * kUsPerSec);
  const auto& grown = rig.supervisor.recorder().snapshots();
  ASSERT_GT(grown.size(), count_before);
  // Appended, not restarted: times stay monotonic across the restore.
  EXPECT_GT(grown[count_before].at, last_at);
}

TEST(LifecycleRestoreTest, RecorderHoldsWhatTheCheckpointHolds) {
  // Sixteen small spaces pass kRecorderTailMax snapshots within a few
  // 100 ms windows. The supervisor's recorder keeps only the newest
  // kRecorderTailMax, all a checkpoint carries, so a restore puts back
  // every snapshot it held.
  fault::FaultPlane plane;
  sim::System system(sim::MachineSpec{"lc", 4, 3.0, 4 * GiB},
                     sim::SwapConfig::Zram());
  std::vector<std::unique_ptr<sim::AddressSpace>> spaces;
  std::vector<sim::AddressSpace*> targets;
  for (int i = 0; i < 16; ++i) {
    spaces.push_back(
        std::make_unique<sim::AddressSpace>(i + 1, &system.machine(), 3.0));
    spaces.back()->Map(kBase, 4 * MiB, "heap");
    targets.push_back(spaces.back().get());
  }
  lifecycle::KdamondSupervisor supervisor;
  supervisor.AttachTo(system, targets);
  system.SetFaultPlane(&plane);
  system.Run(3 * kUsPerSec);

  ASSERT_GT(supervisor.context().counters().aggregations * targets.size(),
            lifecycle::kRecorderTailMax);
  const std::vector<damon::Snapshot> before =
      supervisor.recorder().snapshots();
  ASSERT_LE(before.size(), lifecycle::kRecorderTailMax);

  std::string error;
  ASSERT_TRUE(supervisor.RestoreFromText(supervisor.CaptureCheckpointText(),
                                         &error))
      << error;
  const std::vector<damon::Snapshot>& after =
      supervisor.recorder().snapshots();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].at, before[i].at) << i;
    EXPECT_EQ(after[i].target_index, before[i].target_index) << i;
    ASSERT_EQ(after[i].regions.size(), before[i].regions.size()) << i;
    for (std::size_t r = 0; r < before[i].regions.size(); ++r) {
      const damon::SnapshotRegion& x = after[i].regions[r];
      const damon::SnapshotRegion& y = before[i].regions[r];
      EXPECT_TRUE(x.start == y.start && x.end == y.end &&
                  x.nr_accesses == y.nr_accesses && x.age == y.age)
          << "snapshot " << i << " region " << r;
    }
  }
}

TEST(LifecycleStateTest, StateTextReportsTheMachine) {
  Rig rig;
  rig.InstallOrDie("min max min min min max stat");
  rig.system.Run(1 * kUsPerSec);
  const std::string text = rig.supervisor.StateText();
  EXPECT_NE(text.find("state running\n"), std::string::npos) << text;
  EXPECT_NE(text.find("alive 1\n"), std::string::npos);
  EXPECT_NE(text.find("commit_pending 0\n"), std::string::npos);
  EXPECT_NE(text.find("restart_budget 0/3\n"), std::string::npos);
}

TEST(LifecycleStressTest, SurvivesEnvFaultInjection) {
  // Runs under whatever DAOS_FAULTS arms (the CI crash-restart step sets
  // daemon.crash at mid probability); with nothing armed it is a plain
  // smoke test. Only injection-invariant facts are asserted.
  lifecycle::SupervisorConfig config = FastCrashConfig();
  Rig rig(config, /*keep_env_plane=*/true);
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie("min max min min min max stat");
  rig.system.Run(10 * kUsPerSec);

  const lifecycle::LifecycleCounters& c = rig.supervisor.counters();
  // Every detected crash leads to exactly one rebuild, except possibly the
  // last one, which may still be waiting out its backoff at run end.
  EXPECT_LE(c.restores + c.cold_restarts, c.crashes);
  EXPECT_LE(c.crashes, c.restores + c.cold_restarts + 1);
  if (c.crashes == 0) {
    EXPECT_TRUE(rig.supervisor.alive());
    EXPECT_EQ(rig.supervisor.state(), lifecycle::SupervisorState::kRunning);
  }
  // The control surface stays readable whatever happened.
  EXPECT_NE(rig.supervisor.StateText().find("state "), std::string::npos);
  const std::string checkpoint = rig.supervisor.CaptureCheckpointText();
  EXPECT_NE(checkpoint.find("daos-checkpoint v1\n"), std::string::npos);
}

TEST(LifecycleBudgetTest, ZeroWidthWindowClampsToAggregationInterval) {
  // A zero-width sliding window would roll on every step and re-arm a
  // degraded engine continuously — crash containment silently off. The
  // effective window must clamp to at least one aggregation interval.
  lifecycle::SupervisorConfig config = FastCrashConfig();
  config.restart_budget_window = 0;
  Rig rig(config);
  rig.InstallOrDie("min max min min min max stat");
  EXPECT_EQ(rig.supervisor.EffectiveBudgetWindow(),
            rig.supervisor.context().attrs().aggregation_interval);
  EXPECT_GT(rig.supervisor.EffectiveBudgetWindow(), 0u);
  EXPECT_NE(rig.supervisor.StateText().find("budget_window_us "),
            std::string::npos)
      << rig.supervisor.StateText();
}

TEST(LifecycleBudgetTest, CommitRejectsAggregationWiderThanWindow) {
  // The clamp never silently *grows* a window the operator set: a bundle
  // whose aggregation interval exceeds the configured window is refused at
  // staging time, all-or-nothing.
  lifecycle::SupervisorConfig config;
  config.restart_budget_window = 1 * kUsPerSec;
  Rig rig(config);
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie("min max min min min max stat");
  rig.system.Run(1 * kUsPerSec);

  std::string error;
  EXPECT_FALSE(rig.supervisor.CommitFromText(
      "attrs 5000 2000000 4000000 10 1000\n", &error));
  EXPECT_NE(error.find("restart budget window"), std::string::npos) << error;
  EXPECT_FALSE(rig.supervisor.commit_pending());
  EXPECT_EQ(rig.supervisor.counters().commits, 0u);
  EXPECT_EQ(rig.supervisor.counters().rollbacks, 1u);
  EXPECT_EQ(rig.supervisor.context().attrs().aggregation_interval,
            100 * kUsPerMs)
      << "rejected attrs must leave the running configuration untouched";

  // The same bundle inside the window is accepted.
  EXPECT_TRUE(rig.supervisor.CommitFromText(
      "attrs 5000 500000 1000000 10 1000\n", &error))
      << error;
}

TEST(LifecycleCommitTest, CancelStagedCommitDropsTheBundle) {
  Rig rig;
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie("min max min min min max stat");
  rig.system.Run(1 * kUsPerSec);

  ASSERT_TRUE(rig.supervisor.CommitFromText(
      "attrs 5000 200000 1000000 10 1000\n", nullptr));
  ASSERT_TRUE(rig.supervisor.commit_pending());
  ASSERT_EQ(rig.supervisor.state(), lifecycle::SupervisorState::kDraining);

  rig.supervisor.CancelStagedCommit();
  EXPECT_FALSE(rig.supervisor.commit_pending());
  EXPECT_EQ(rig.supervisor.state(), lifecycle::SupervisorState::kRunning);
  EXPECT_EQ(rig.supervisor.last_commit_result(), "cancelled");

  // Nothing applies later: the bundle is gone, not deferred.
  rig.system.Run(2 * kUsPerSec);
  EXPECT_EQ(rig.supervisor.counters().commits, 0u);
  EXPECT_EQ(rig.supervisor.context().attrs().aggregation_interval,
            100 * kUsPerMs);
}

}  // namespace
