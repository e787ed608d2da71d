// Fleet rollout controller tests (src/fleet): canary promotion, the
// rollback bit-identity property, quorum starvation, quarantine policy,
// and crash-storm containment.
//
// All rigs except the env-stress one pin `use_env_faults = false`, so the
// golden comparisons stay deterministic under the CI fault-stress job
// (DAOS_FAULTS armed). The fleet's own fault points are then driven
// explicitly through ConfigureFaults.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "dbgfs/pseudo_fs.hpp"
#include "dbgfs/views.hpp"
#include "fleet/controller.hpp"
#include "util/units.hpp"

namespace {

using namespace daos;

/// 4 shards x 8 servers of 16M each: small enough that a test runs dozens
/// of epochs in milliseconds, big enough that pageout savings are visible.
/// No cold strays and no env faults: fully deterministic.
fleet::FleetConfig SmallFleet() {
  fleet::FleetConfig config;
  config.nr_shards = 4;
  config.workload.nr_processes = 8;
  config.workload.rss_per_process = 16 * MiB;
  config.workload.cold_touch_period_s = 0;
  config.machine = {"test-fleet", 4, 3.0, GiB};
  config.swap = sim::SwapConfig::File(GiB);
  config.quantum = 5 * kUsPerMs;
  config.epoch = 250 * kUsPerMs;
  config.use_env_faults = false;
  return config;
}

std::vector<std::string> CaptureAll(fleet::FleetController& fleet) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < fleet.nr_shards(); ++i)
    out.push_back(fleet.supervisor(i).CaptureCheckpointText());
  return out;
}

std::vector<std::uint64_t> RssAll(fleet::FleetController& fleet) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < fleet.nr_shards(); ++i) {
    std::uint64_t rss = 0;
    for (const auto& p : fleet.system(i).processes())
      rss += p->ReadRssBytes();
    out.push_back(rss);
  }
  return out;
}

// ---- promotion ------------------------------------------------------------

TEST(FleetRollout, CanaryRampPromotes) {
  fleet::FleetConfig config = SmallFleet();
  config.initial_schemes = "min max min min 6s max pageout";
  fleet::FleetController fleet(config);
  for (int epoch = 0; epoch < 4; ++epoch) fleet.RunEpoch();

  fleet::RolloutSpec spec;
  spec.bundle_text = "scheme min max min min 1s max pageout\n";
  spec.canary_frac = 0.25;
  spec.ramp = {0.5, 1.0};
  spec.gate_epochs = 2;
  spec.timeout_epochs = 40;
  std::string error;
  ASSERT_TRUE(fleet.StartRollout(spec, &error)) << error;
  EXPECT_EQ(fleet.rollout_state(), fleet::RolloutState::kCanary);

  EXPECT_EQ(fleet.RunRollout(), fleet::RolloutState::kPromoted);
  EXPECT_EQ(fleet.counters().promoted, 1u);
  EXPECT_EQ(fleet.counters().stage_promotions, 2u);
  EXPECT_EQ(fleet.counters().gate_trips, 0u);
  EXPECT_FALSE(fleet.rollout_active());
  for (std::size_t i = 0; i < fleet.nr_shards(); ++i)
    EXPECT_FALSE(fleet.in_wave(i)) << "shard " << i;

  // The promoted 1s PAGEOUT trims the ~90 % cold bloat on every shard.
  const std::uint64_t initial =
      static_cast<std::uint64_t>(config.workload.nr_processes) *
      config.workload.rss_per_process;
  for (int epoch = 0; epoch < 8; ++epoch) fleet.RunEpoch();
  for (const std::uint64_t rss : RssAll(fleet))
    EXPECT_LT(rss, initial / 2);
}

TEST(FleetRollout, RejectsBadSpecsWithNothingStaged) {
  fleet::FleetController fleet(SmallFleet());
  fleet.RunEpoch();
  std::string error;
  fleet::RolloutSpec spec;
  spec.bundle_text = "scheme min max min min 1s max pageout\n";

  spec.canary_frac = 1.5;
  EXPECT_FALSE(fleet.StartRollout(spec, &error));
  spec.canary_frac = 0.25;
  spec.ramp = {0.5, 0.25};  // not ascending
  EXPECT_FALSE(fleet.StartRollout(spec, &error));
  spec.ramp = {1.0};
  spec.bundle_text = "scheme not a scheme\n";
  EXPECT_FALSE(fleet.StartRollout(spec, &error));
  spec.bundle_text = "";
  EXPECT_FALSE(fleet.StartRollout(spec, &error));

  EXPECT_EQ(fleet.rollout_state(), fleet::RolloutState::kIdle);
  EXPECT_EQ(fleet.counters().rollouts, 0u);
  for (std::size_t i = 0; i < fleet.nr_shards(); ++i)
    EXPECT_FALSE(fleet.in_wave(i));
}

TEST(FleetRollout, FailedInitialInstallIsReported) {
  fleet::FleetConfig config = SmallFleet();
  config.nr_shards = 2;
  config.initial_schemes = "bogus";
  fleet::FleetController fleet(config);
  EXPECT_EQ(fleet.init_error().rfind("shard 0: line 1: ", 0), 0u)
      << fleet.init_error();
  const std::string status = fleet.StatusText();
  EXPECT_NE(status.find("\ninit_error " + fleet.init_error() + "\n"),
            std::string::npos)
      << status;

  config.initial_schemes = "min max min min 6s max pageout";
  fleet::FleetController healthy(config);
  EXPECT_EQ(healthy.init_error(), "");
  EXPECT_EQ(healthy.StatusText().find("init_error"), std::string::npos);
}

TEST(FleetRollout, ParseRolloutSpecGrammar) {
  fleet::RolloutSpec spec;
  std::string error;
  EXPECT_TRUE(fleet::FleetController::ParseRolloutSpec(
      "# comment\n"
      "canary 0.125\n"
      "ramp 0.25 0.5 1.0\n"
      "gate_epochs 3\n"
      "timeout_epochs 16\n"
      "max_saving_regression 0.1\n"
      "max_cpu_overhead 0.02\n"
      "max_scheme_errors 5\n"
      "scheme min max min min 1s max pageout\n",
      &spec, &error))
      << error;
  EXPECT_DOUBLE_EQ(spec.canary_frac, 0.125);
  ASSERT_EQ(spec.ramp.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.ramp[2], 1.0);
  EXPECT_EQ(spec.gate_epochs, 3u);
  EXPECT_EQ(spec.timeout_epochs, 16u);
  EXPECT_DOUBLE_EQ(spec.max_cpu_overhead, 0.02);
  EXPECT_EQ(spec.max_scheme_errors, 5u);
  EXPECT_EQ(spec.bundle_text, "scheme min max min min 1s max pageout\n");

  // Line-numbered all-or-nothing failures.
  EXPECT_FALSE(fleet::FleetController::ParseRolloutSpec(
      "canary 0.5\nbogus 1\n", &spec, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(fleet::FleetController::ParseRolloutSpec(
      "canary 0.5 extra\nscheme min max min min 1s max stat\n", &spec,
      &error));
  EXPECT_FALSE(
      fleet::FleetController::ParseRolloutSpec("canary 0.5\n", &spec, &error))
      << "bundle-less spec must be rejected";
}

// ---- the rollback bit-identity property -----------------------------------

/// A rollout whose PAGEOUT attempts all fail (swap.write_error p=1.0)
/// against an initial STAT scheme that never touches the sim: the error
/// gate must trip on the canary wave, and after rollback the fleet must be
/// bit-identical — checkpoints and subsequent replay — to a golden fleet
/// that never saw the rollout. `inject_rollback_fail` additionally forces
/// the first restore attempt per shard to fail, exercising the bounded
/// retry path, which must converge to the same goldens one epoch later.
void RollbackBitIdentity(bool inject_rollback_fail) {
  fleet::FleetConfig config = SmallFleet();
  config.initial_schemes = "min max min min 2s max stat";

  fleet::FleetController tested(config);
  fleet::FleetController golden(config);
  std::string error;
  // Identical arming on both fleets. The golden never draws from either
  // point: STAT pages nothing out and no rollback ever starts there.
  std::string faults = "swap.write_error p=1.0";
  if (inject_rollback_fail) faults += "; fleet.rollback_fail once=1";
  ASSERT_TRUE(tested.ConfigureFaults(faults, &error)) << error;
  ASSERT_TRUE(golden.ConfigureFaults(faults, &error)) << error;

  for (int epoch = 0; epoch < 6; ++epoch) tested.RunEpoch();

  fleet::RolloutSpec spec;
  spec.bundle_text = "scheme min max min min 2s max pageout\n";
  spec.canary_frac = 0.25;
  spec.ramp = {1.0};
  spec.gate_epochs = 2;
  spec.timeout_epochs = 20;
  spec.max_scheme_errors = 0;
  ASSERT_TRUE(tested.StartRollout(spec, &error)) << error;
  ASSERT_EQ(tested.RunRollout(), fleet::RolloutState::kRolledBack);
  EXPECT_GE(tested.counters().gate_trips, 1u);
  EXPECT_FALSE(tested.rollout_active());
  if (inject_rollback_fail) {
    EXPECT_GE(tested.counters().rollback_retries, 1u);
    EXPECT_EQ(tested.counters().rollback_failures, 0u);
  }

  // Replay the same wall of epochs on the golden fleet, then let both run
  // on: the restored monitors must reconverge bit-identically.
  for (int epoch = 0; epoch < 6; ++epoch) tested.RunEpoch();
  while (golden.counters().epochs < tested.counters().epochs)
    golden.RunEpoch();
  ASSERT_EQ(golden.Now(), tested.Now());

  const std::vector<std::string> tested_cp = CaptureAll(tested);
  const std::vector<std::string> golden_cp = CaptureAll(golden);
  const std::vector<std::uint64_t> tested_rss = RssAll(tested);
  const std::vector<std::uint64_t> golden_rss = RssAll(golden);
  for (std::size_t i = 0; i < tested.nr_shards(); ++i) {
    EXPECT_EQ(tested_cp[i], golden_cp[i]) << "shard " << i;
    EXPECT_EQ(tested_rss[i], golden_rss[i]) << "shard " << i;
  }
}

TEST(FleetRollback, GateTripLeavesFleetBitIdentical) {
  RollbackBitIdentity(/*inject_rollback_fail=*/false);
}

TEST(FleetRollback, RetriedRollbackConvergesToSameGolden) {
  RollbackBitIdentity(/*inject_rollback_fail=*/true);
}

// ---- quorum starvation ----------------------------------------------------

TEST(FleetRollout, TelemetryLossStarvationAborts) {
  fleet::FleetController fleet(SmallFleet());
  std::string error;
  for (int epoch = 0; epoch < 4; ++epoch) fleet.RunEpoch();
  // Every health sample is lost from here on: the gate can never reach a
  // quorum, so the rollout must neither promote nor roll back on data it
  // does not have — it times out and aborts.
  ASSERT_TRUE(fleet.ConfigureFaults("fleet.telemetry_loss p=1.0", &error))
      << error;

  fleet::RolloutSpec spec;
  spec.bundle_text = "scheme min max min min 1s max pageout\n";
  spec.canary_frac = 0.25;
  spec.ramp = {1.0};
  spec.gate_epochs = 1;
  spec.timeout_epochs = 3;
  ASSERT_TRUE(fleet.StartRollout(spec, &error)) << error;
  EXPECT_EQ(fleet.RunRollout(), fleet::RolloutState::kAborted);
  EXPECT_EQ(fleet.counters().aborted, 1u);
  EXPECT_GE(fleet.counters().quorum_misses, 3u);
  EXPECT_GE(fleet.counters().telemetry_losses, 3u);
  EXPECT_FALSE(fleet.rollout_active());
  for (std::size_t i = 0; i < fleet.nr_shards(); ++i)
    EXPECT_FALSE(fleet.in_wave(i)) << "shard " << i;
}

// ---- quarantine policy ----------------------------------------------------

TEST(FleetQuarantine, FileRoundTripsAndRejectsBadWrites) {
  fleet::FleetController fleet(SmallFleet());
  fleet.RunEpoch();
  std::string error;
  EXPECT_TRUE(fleet.WriteQuarantine("add 1\nadd 3\n", &error)) << error;
  EXPECT_TRUE(fleet.quarantined(1));
  EXPECT_TRUE(fleet.quarantined(3));
  EXPECT_EQ(fleet.QuarantineText(), "add 1\nadd 3\n");
  // The read is valid input for the write: round-trip is a no-op.
  EXPECT_TRUE(fleet.WriteQuarantine(fleet.QuarantineText(), &error));
  EXPECT_EQ(fleet.QuarantineText(), "add 1\nadd 3\n");

  EXPECT_TRUE(fleet.WriteQuarantine("release 1", &error));
  EXPECT_EQ(fleet.QuarantineText(), "add 3\n");
  EXPECT_TRUE(fleet.WriteQuarantine("clear", &error));
  EXPECT_EQ(fleet.QuarantineText(), "");

  // All-or-nothing with line-numbered errors.
  EXPECT_FALSE(fleet.WriteQuarantine("add 1\nadd 99\n", &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(fleet.quarantined(1)) << "partial write must not apply";
  EXPECT_FALSE(fleet.WriteQuarantine("evict 1", &error));
  EXPECT_FALSE(fleet.WriteQuarantine("add", &error));
}

TEST(FleetQuarantine, QuarantinedShardsAreExcludedFromWaves) {
  fleet::FleetController fleet(SmallFleet());
  for (int epoch = 0; epoch < 2; ++epoch) fleet.RunEpoch();
  std::string error;
  ASSERT_TRUE(fleet.WriteQuarantine("add 0\nadd 1\n", &error)) << error;

  fleet::RolloutSpec spec;
  spec.bundle_text = "scheme min max min min 1s max pageout\n";
  spec.canary_frac = 0.5;  // of the 2 active shards -> shard 2 only
  spec.ramp = {1.0};
  spec.gate_epochs = 1;
  spec.timeout_epochs = 20;
  ASSERT_TRUE(fleet.StartRollout(spec, &error)) << error;
  EXPECT_TRUE(fleet.in_wave(2));
  EXPECT_FALSE(fleet.in_wave(0));
  EXPECT_FALSE(fleet.in_wave(1));
  EXPECT_EQ(fleet.RunRollout(), fleet::RolloutState::kPromoted);
  EXPECT_FALSE(fleet.in_wave(0)) << "quarantined shards never join a wave";
}

// ---- crash storms ---------------------------------------------------------

fleet::FleetConfig StormFleet() {
  fleet::FleetConfig config = SmallFleet();
  config.workload.nr_processes = 4;
  config.supervisor.checkpoint_interval = 500 * kUsPerMs;
  config.supervisor.heartbeat_interval = 50 * kUsPerMs;
  config.supervisor.heartbeat_timeout = 150 * kUsPerMs;
  config.supervisor.restart_backoff = 50 * kUsPerMs;
  config.supervisor.max_backoff_exp = 2;
  config.supervisor.restart_budget = 2;
  config.supervisor.restart_budget_window = 4 * kUsPerSec;
  return config;
}

TEST(FleetCrashStorm, QuarantinesWithoutDeadlockAndStateRoundTrips) {
  fleet::FleetController fleet(StormFleet());
  std::string error;
  ASSERT_TRUE(fleet.ConfigureFaults("daemon.crash p=0.01", &error)) << error;
  for (int epoch = 0; epoch < 60; ++epoch) fleet.RunEpoch();

  std::uint64_t crashes = 0;
  for (std::size_t i = 0; i < fleet.nr_shards(); ++i)
    crashes += fleet.supervisor(i).counters().crashes;
  EXPECT_GT(crashes, 0u) << "the storm must actually kill kdamonds";
  EXPECT_GT(fleet.counters().quarantines, 0u);

  // The fleet state text stays parseable and round-trips mid-storm.
  const std::string status = fleet.StatusText();
  EXPECT_EQ(status.rfind("state ", 0), 0u) << status;
  EXPECT_NE(status.find("shard 0 state "), std::string::npos);
  EXPECT_TRUE(fleet.WriteQuarantine(fleet.QuarantineText(), &error)) << error;

  // Quarantined shards are monitoring-only: schemes disarmed.
  for (std::size_t i = 0; i < fleet.nr_shards(); ++i) {
    if (fleet.quarantined(i)) {
      EXPECT_TRUE(fleet.supervisor(i).engine().disarmed()) << "shard " << i;
    }
  }
}

TEST(FleetCrashStorm, DisarmedRerunIsBitIdenticalToNeverFaulted) {
  fleet::FleetController armed(StormFleet());
  fleet::FleetController never(StormFleet());
  std::string error;
  // Arm the storm, then disarm before any epoch runs: a disarmed point
  // draws nothing, so the run must be bit-identical to never arming.
  ASSERT_TRUE(armed.ConfigureFaults("daemon.crash p=0.2", &error)) << error;
  ASSERT_TRUE(armed.ConfigureFaults("daemon.crash off", &error)) << error;
  for (int epoch = 0; epoch < 12; ++epoch) {
    armed.RunEpoch();
    never.RunEpoch();
  }
  const std::vector<std::string> a = CaptureAll(armed);
  const std::vector<std::string> b = CaptureAll(never);
  for (std::size_t i = 0; i < armed.nr_shards(); ++i)
    EXPECT_EQ(a[i], b[i]) << "shard " << i;
}

// ---- scheduling independence ----------------------------------------------

TEST(FleetDeterminism, JobsOneAndFourAreBitIdentical) {
  const char* saved = std::getenv("DAOS_JOBS");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::setenv("DAOS_JOBS", "1", 1);
  fleet::FleetController serial(SmallFleet());
  ::setenv("DAOS_JOBS", "4", 1);
  fleet::FleetController parallel(SmallFleet());
  std::string error;
  fleet::RolloutSpec spec;
  spec.bundle_text = "scheme min max min min 1s max pageout\n";
  spec.canary_frac = 0.25;
  spec.ramp = {1.0};
  spec.gate_epochs = 1;
  spec.timeout_epochs = 20;
  for (fleet::FleetController* fleet : {&serial, &parallel}) {
    for (int epoch = 0; epoch < 3; ++epoch) fleet->RunEpoch();
    ASSERT_TRUE(fleet->StartRollout(spec, &error)) << error;
    fleet->RunRollout();
    for (int epoch = 0; epoch < 3; ++epoch) fleet->RunEpoch();
  }
  if (saved != nullptr)
    ::setenv("DAOS_JOBS", saved_value.c_str(), 1);
  else
    ::unsetenv("DAOS_JOBS");

  EXPECT_EQ(serial.rollout_state(), parallel.rollout_state());
  EXPECT_EQ(serial.StatusText(), parallel.StatusText());
  const std::vector<std::string> a = CaptureAll(serial);
  const std::vector<std::string> b = CaptureAll(parallel);
  for (std::size_t i = 0; i < serial.nr_shards(); ++i)
    EXPECT_EQ(a[i], b[i]) << "shard " << i;
}

// ---- the dbgfs surface ----------------------------------------------------

TEST(FleetFs, ControlFilesDriveTheController) {
  fleet::FleetController fleet(SmallFleet());
  dbgfs::PseudoFs fs;
  const dbgfs::Mount fleet_fs = dbgfs::MountFleet(&fs, &fleet);
  for (int epoch = 0; epoch < 4; ++epoch) fleet.RunEpoch();

  const std::optional<std::string> status = fs.Read("/fleet/status");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->rfind("state idle", 0), 0u) << *status;

  std::string error;
  EXPECT_FALSE(fs.Write("/fleet/rollout", "canary 0.5\n", &error))
      << "bundle-less spec must fail the write";
  ASSERT_TRUE(fs.Write("/fleet/rollout",
                       "canary 0.25\nramp 1.0\ngate_epochs 1\n"
                       "scheme min max min min 1s max pageout\n",
                       &error))
      << error;
  fleet.RunRollout();
  EXPECT_EQ(fs.Read("/fleet/rollout")->rfind("promoted", 0), 0u);

  ASSERT_TRUE(fs.Write("/fleet/quarantine", "add 2\n", &error)) << error;
  EXPECT_EQ(*fs.Read("/fleet/quarantine"), "add 2\n");
  EXPECT_FALSE(fs.Write("/fleet/quarantine", "add 42\n", &error));
}

// ---- env-armed stress (the CI crash-storm leg) ----------------------------

/// The one rig that keeps DAOS_FAULTS armed (fleet.shard_crash storms in
/// CI): asserts only the invariants that hold under arbitrary injection —
/// the control loop terminates, clocks stay lockstep, and the state text
/// stays well-formed.
TEST(FleetEnvStress, SurvivesEnvFaultInjection) {
  fleet::FleetConfig config = StormFleet();
  config.use_env_faults = true;
  fleet::FleetController fleet(config);
  for (int epoch = 0; epoch < 40; ++epoch) fleet.RunEpoch();
  EXPECT_EQ(fleet.counters().epochs, 40u);
  for (std::size_t i = 0; i < fleet.nr_shards(); ++i)
    EXPECT_EQ(fleet.system(i).Now(), fleet.Now()) << "shard " << i;
  const std::string status = fleet.StatusText();
  EXPECT_EQ(status.rfind("state ", 0), 0u) << status;
  std::string error;
  EXPECT_TRUE(fleet.WriteQuarantine(fleet.QuarantineText(), &error)) << error;
}

}  // namespace
