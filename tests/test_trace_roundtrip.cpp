// Record -> replay round-trip properties (src/trace).
//
// The contract under test (DESIGN §11): a trace captures a workload's
// touch stream exactly, so replaying it under the recorded config and
// seed reproduces the recorded run bit-for-bit — same runtime, same RSS
// trajectory, same fault counts, same monitor snapshots, same scheme
// stats. And since a replay profile is a first-class workload, the
// parallel-runner determinism contract and the checkpoint/restore
// identity must keep holding when the workload is a trace.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/runner.hpp"
#include "damon/primitives.hpp"
#include "damon/recorder.hpp"
#include "fault/fault.hpp"
#include "lifecycle/supervisor.hpp"
#include "sim/address_space.hpp"
#include "sim/system.hpp"
#include "trace/format.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "util/file.hpp"
#include "util/units.hpp"
#include "workload/profile.hpp"

namespace {

using namespace daos;

/// Shrinks a profile so a record+replay pair stays test-sized while the
/// access pattern (groups, zipf, scenario source) is untouched in shape.
workload::WorkloadProfile Shrunk(const char* name) {
  workload::WorkloadProfile p = *workload::FindProfile(name);
  if (p.data_bytes > 128 * MiB) p.data_bytes = 128 * MiB;
  p.runtime_s = 10.0;
  p.noise = 0.0;
  return p;
}

trace::TraceMeta MetaFor(const workload::WorkloadProfile& p) {
  trace::TraceMeta meta;
  meta.name = p.name;
  meta.data_bytes = p.data_bytes;
  meta.runtime_s = p.runtime_s;
  meta.mem_boundness = p.mem_boundness;
  meta.thp_gain = p.thp_gain;
  meta.zram_ratio = p.zram_ratio;
  return meta;
}

std::string TracePathFor(const workload::WorkloadProfile& p,
                         std::uint64_t seed) {
  std::string file = p.name;
  for (char& c : file) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "/" + file + "_" + std::to_string(seed) +
         ".dtr";
}

void ExpectResultsIdentical(const analysis::ExperimentResult& a,
                            const analysis::ExperimentResult& b) {
  EXPECT_EQ(a.runtime_s, b.runtime_s);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.avg_rss_bytes, b.avg_rss_bytes);
  EXPECT_EQ(a.peak_rss_bytes, b.peak_rss_bytes);
  EXPECT_EQ(a.major_faults, b.major_faults);
  EXPECT_EQ(a.monitor_cpu_fraction, b.monitor_cpu_fraction);
  EXPECT_EQ(a.interference_s, b.interference_s);
  ASSERT_EQ(a.scheme_stats.size(), b.scheme_stats.size());
  for (std::size_t i = 0; i < a.scheme_stats.size(); ++i) {
    EXPECT_EQ(a.scheme_stats[i].nr_tried, b.scheme_stats[i].nr_tried);
    EXPECT_EQ(a.scheme_stats[i].sz_tried, b.scheme_stats[i].sz_tried);
    EXPECT_EQ(a.scheme_stats[i].nr_applied, b.scheme_stats[i].nr_applied);
    EXPECT_EQ(a.scheme_stats[i].sz_applied, b.scheme_stats[i].sz_applied);
  }
}

void ExpectSnapshotsIdentical(const std::vector<damon::Snapshot>& a,
                              const std::vector<damon::Snapshot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].target_index, b[i].target_index);
    ASSERT_EQ(a[i].regions.size(), b[i].regions.size()) << "snapshot " << i;
    for (std::size_t r = 0; r < a[i].regions.size(); ++r) {
      EXPECT_EQ(a[i].regions[r].start, b[i].regions[r].start);
      EXPECT_EQ(a[i].regions[r].end, b[i].regions[r].end);
      EXPECT_EQ(a[i].regions[r].nr_accesses, b[i].regions[r].nr_accesses);
      EXPECT_EQ(a[i].regions[r].age, b[i].regions[r].age);
    }
  }
}

// --- the core property: record -> replay is the identity --------------------

TEST(TraceRoundTripProperty, RecordReplayBitIdentityAcrossProfilesAndSeeds) {
  // Three profile shapes (zipf KV point ops, adversarial striping, a
  // paper-suite synthetic) x two seeds, all under the monitored prcl
  // config so the comparison covers monitor snapshots and scheme stats.
  const char* names[] = {"scenario/kvstore", "scenario/antimerge",
                         "parsec3/freqmine"};
  for (const char* name : names) {
    for (const std::uint64_t seed : {3ull, 11ull}) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      const workload::WorkloadProfile profile = Shrunk(name);

      trace::TraceWriter writer(MetaFor(profile));
      analysis::ExperimentOptions options;
      options.apply_runtime_noise = false;
      options.seed = seed;
      options.record_tap = &writer;
      damon::Recorder recorded_snaps;
      const analysis::ExperimentResult recorded =
          analysis::RunWorkload(profile, analysis::Config::kPrcl, options,
                                nullptr, &recorded_snaps);
      ASSERT_TRUE(recorded.finished);
      ASSERT_GT(writer.events(), 0u);

      const std::string path = TracePathFor(profile, seed);
      std::string error;
      ASSERT_TRUE(WriteFile(path, writer.Finish(), &error)) << error;
      const std::optional<workload::WorkloadProfile> replay_profile =
          workload::ResolveProfile("trace:" + path, &error);
      ASSERT_TRUE(replay_profile.has_value()) << error;

      analysis::ExperimentOptions replay_options;
      replay_options.apply_runtime_noise = false;
      replay_options.seed = seed;
      damon::Recorder replayed_snaps;
      const analysis::ExperimentResult replayed =
          analysis::RunWorkload(*replay_profile, analysis::Config::kPrcl,
                                replay_options, nullptr, &replayed_snaps);

      ExpectResultsIdentical(recorded, replayed);
      ExpectSnapshotsIdentical(recorded_snaps.snapshots(),
                               replayed_snaps.snapshots());
    }
  }
}

// --- replay under crash/restore ---------------------------------------------

constexpr Addr kBase = 1 * GiB;
constexpr std::uint64_t kHeap = 64 * MiB;
constexpr char kGovernedScheme[] =
    "min max min min 1s max pageout quota_sz=4M quota_reset_ms=1000 "
    "prio_weights=3,7,1";

/// A supervised kdamond over a bare space, fault plane overridden so
/// DAOS_FAULTS cannot perturb the golden comparison. Unlike the
/// checkpoint-test rig the space starts empty: the replayed trace's own
/// kMap events build the layout.
struct ReplayRig {
  fault::FaultPlane plane;
  sim::System system;
  sim::AddressSpace space;
  lifecycle::KdamondSupervisor supervisor;

  ReplayRig()
      : system(sim::MachineSpec{"rply", 4, 3.0, 4 * GiB},
               sim::SwapConfig::Zram()),
        space(1, &system.machine(), 3.0),
        supervisor(lifecycle::SupervisorConfig{}) {
    supervisor.AttachTo(system, {&space});
    system.SetFaultPlane(&plane);
  }

  void InstallOrDie(const char* schemes) {
    std::string error;
    ASSERT_TRUE(supervisor.InstallSchemesFromText(schemes, &error)) << error;
  }
};

/// Map + populate at t=0, then a rotating 8 MiB hot window every 250 ms —
/// enough churn to keep splits, merges and quota charging busy across the
/// restore point.
trace::Trace ShiftingHotTrace() {
  trace::Trace t;
  t.meta.name = "hotshift";
  t.meta.data_bytes = kHeap;
  t.meta.runtime_s = 4.0;
  t.events.push_back({0, trace::TraceOp::kMap, false, PageOf(kBase),
                      kHeap >> kPageShift, "heap"});
  t.events.push_back({0, trace::TraceOp::kTouchRange, true, PageOf(kBase),
                      kHeap >> kPageShift, ""});
  for (SimTimeUs now = 250 * kUsPerMs; now < 4 * kUsPerSec;
       now += 250 * kUsPerMs) {
    const Addr hot = kBase + (now / (250 * kUsPerMs) % 4) * (8 * MiB);
    t.events.push_back({now, trace::TraceOp::kTouchRange, true, PageOf(hot),
                        (8 * MiB) >> kPageShift, ""});
  }
  return t;
}

TEST(TraceRoundTripProperty, ReplayUnderCrashRestoreReconverges) {
  // Two identical rigs replay the same shared trace in lockstep; mid-run,
  // B's kdamond is torn down and rebuilt from its own checkpoint. If both
  // restore and replay are faithful, A and B's checkpoints stay
  // byte-identical for every window after the crash point.
  const auto trace_data =
      std::make_shared<const trace::Trace>(ShiftingHotTrace());
  ReplayRig a;
  ReplayRig b;
  trace::TraceReplaySource replay_a(trace_data);
  trace::TraceReplaySource replay_b(trace_data);
  a.InstallOrDie(kGovernedScheme);
  b.InstallOrDie(kGovernedScheme);

  auto run_lockstep = [&](SimTimeUs until) {
    while (a.system.Now() < until) {
      replay_a.EmitQuantum(a.space, a.system.Now(), 5 * kUsPerMs);
      replay_b.EmitQuantum(b.space, b.system.Now(), 5 * kUsPerMs);
      a.system.Step();
      b.system.Step();
    }
  };

  run_lockstep(2 * kUsPerSec);
  const std::string at_2s_a = a.supervisor.CaptureCheckpointText();
  const std::string at_2s_b = b.supervisor.CaptureCheckpointText();
  ASSERT_EQ(at_2s_a, at_2s_b) << "lockstep baseline diverged";

  std::string error;
  ASSERT_TRUE(b.supervisor.RestoreFromText(at_2s_b, &error)) << error;

  run_lockstep(5 * kUsPerSec);
  EXPECT_TRUE(replay_a.exhausted());
  EXPECT_EQ(replay_a.delivered(), replay_b.delivered());
  EXPECT_EQ(a.supervisor.CaptureCheckpointText(),
            b.supervisor.CaptureCheckpointText());
}

// --- parallel runner determinism with trace and scenario workloads ----------

TEST(TraceRoundTripProperty, ReplayAndScenarioIdenticalUnderParallelRunner) {
  // Record a small scenario trace, then run a grid mixing the replay
  // profile (shared in-memory trace) with a scenario profile at 1 and 3
  // workers: results must be bit-identical — the contract that lets the
  // fig grids run trace workloads under DAOS_JOBS.
  const workload::WorkloadProfile source = Shrunk("scenario/graph");
  trace::TraceWriter writer(MetaFor(source));
  analysis::ExperimentOptions rec_options;
  rec_options.apply_runtime_noise = false;
  rec_options.seed = 5;
  rec_options.record_tap = &writer;
  analysis::RunWorkload(source, analysis::Config::kBaseline, rec_options);

  const std::string path = TracePathFor(source, 5);
  std::string error;
  ASSERT_TRUE(WriteFile(path, writer.Finish(), &error)) << error;
  const std::optional<workload::WorkloadProfile> replay_profile =
      workload::ResolveProfile("trace:" + path, &error);
  ASSERT_TRUE(replay_profile.has_value()) << error;

  std::vector<analysis::RunSpec> specs;
  for (const workload::WorkloadProfile& profile :
       {*replay_profile, Shrunk("scenario/antimerge")}) {
    for (const analysis::Config config :
         {analysis::Config::kBaseline, analysis::Config::kPrcl}) {
      for (const std::uint64_t seed : {1ull, 2ull}) {
        analysis::RunSpec spec;
        spec.profile = profile;
        spec.config = config;
        spec.options.apply_runtime_noise = false;
        spec.options.seed = seed;
        specs.push_back(spec);
      }
    }
  }

  analysis::ParallelRunner serial(1);
  analysis::ParallelRunner parallel(3);
  const auto serial_results = serial.Run(specs);
  const auto parallel_results = parallel.Run(specs);
  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    ExpectResultsIdentical(serial_results[i], parallel_results[i]);
  }
}

// --- profile resolution errors ----------------------------------------------

TEST(TraceProfileTest, ResolveErrorsAreAccurate) {
  std::string error;
  EXPECT_FALSE(
      workload::ResolveProfile("trace:/no/such/file.dtr", &error).has_value());
  EXPECT_NE(error.find("/no/such/file.dtr"), std::string::npos) << error;
  EXPECT_FALSE(workload::ResolveProfile("nope/missing", &error).has_value());
  EXPECT_NE(error.find("unknown workload"), std::string::npos) << error;
}

}  // namespace
