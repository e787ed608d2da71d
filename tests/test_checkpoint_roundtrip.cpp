// Checkpoint round-trip properties (src/lifecycle/checkpoint.hpp).
//
// The contract under test: serialize -> parse -> serialize is the identity
// on the text, and restoring a capture into a freshly-built stack is the
// identity on the *behaviour* — the restored kdamond produces bit-identical
// monitoring state over the following aggregation windows compared with the
// uninterrupted run. Doubles travel as hex-floats ("%a"), so equality here
// means exact, not approximate.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>

#include "checkpoint_golden.hpp"
#include "damon/monitor.hpp"
#include "damon/primitives.hpp"
#include "damos/engine.hpp"
#include "damos/parser.hpp"
#include "fault/fault.hpp"
#include "lifecycle/checkpoint.hpp"
#include "lifecycle/supervisor.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "sim/system.hpp"
#include "util/hash.hpp"
#include "util/units.hpp"

namespace {

using namespace daos;

constexpr Addr kBase = 1 * GiB;
constexpr std::uint64_t kHeap = 64 * MiB;

/// A hand-built minimal checkpoint: one target, one region, no schemes.
lifecycle::Checkpoint TinyCheckpoint() {
  lifecycle::Checkpoint cp;
  cp.at = 123456;
  cp.sched.primed = true;
  cp.sched.next_sample = 123461;
  cp.sched.next_aggregate = 123556;
  cp.sched.next_update = 124456;
  cp.sched.rng_state = {1, 2, 3, 4};
  cp.sched.counters.samples = 10;
  cp.sched.counters.aggregations = 1;
  cp.sched.counters.cpu_us = 0.7;  // not representable in decimal: %a must
  cp.sched.target_layout_gens = {1};
  lifecycle::CheckpointTarget target;
  damon::Region region;
  region.start = kBase;
  region.end = kBase + 2 * MiB;
  region.nr_accesses = 3;
  region.last_nr_accesses = 2;
  region.age = 5;
  region.sampling_addr = kBase + 4096;
  target.regions.push_back(region);
  cp.targets.push_back(target);
  return cp;
}

/// A hand-built checkpoint that reaches every record and every field kind:
/// two targets, a governed scheme (a `samples` frequency bound, prio
/// weights, a watermark metric), a nonzero backoff, a quota charge of 1/3
/// and a recorder tail of two snapshots.
lifecycle::Checkpoint FullCheckpoint() {
  lifecycle::Checkpoint cp = TinyCheckpoint();
  cp.attrs.adaptive = false;
  cp.attrs.age_reset_threshold = 2;
  cp.sched.counters.region_splits = 7;
  cp.sched.counters.region_merges = 6;
  cp.sched.counters.regions_updates = 2;
  cp.sched.target_layout_gens = {1, 4};
  lifecycle::CheckpointTarget second;
  for (Addr start : {2 * GiB, 2 * GiB + 4 * MiB}) {
    damon::Region region;
    region.start = start;
    region.end = start + 4 * MiB;
    region.nr_accesses = 1;
    region.age = 9;
    region.sampling_addr = start + 8192;
    second.regions.push_back(region);
  }
  cp.targets.push_back(second);
  cp.engine_disarmed = true;

  damos::SchemeBounds bounds;
  bounds.min_size = 4096;
  bounds.max_size = 64 * MiB;
  bounds.min_freq = damos::FreqBound::Samples(2);
  bounds.max_freq = damos::FreqBound::Percent(0.5);
  bounds.min_age = 2 * kUsPerSec;
  bounds.action = damon::DamosAction::kPageout;
  damos::Scheme scheme(bounds);
  governor::GovernorPolicy& policy = scheme.policy();
  policy.quota.sz_bytes = 4 * MiB;
  policy.quota.time_us = 5000;
  policy.prio = {3, 7, 1};
  policy.wmarks.metric = governor::WatermarkMetric::kFreeMemRate;
  policy.wmarks.high = 700;
  policy.wmarks.mid = 500;
  policy.wmarks.low = 100;
  damos::SchemeStats& stats = scheme.stats();
  stats.nr_tried = 40;
  stats.sz_tried = 40 * 4096;
  stats.nr_applied = 12;
  stats.sz_applied = 12 * 4096;
  stats.nr_errors = 1;
  stats.nr_backoffs = 1;
  stats.nr_skipped = 3;
  stats.qt_exceeds = 5;
  stats.sz_quota_exceeded = 5 * 4096;
  stats.nr_wmark_deactivations = 2;
  stats.wmark_active = false;
  damos::SchemeRuntime& runtime = scheme.runtime();
  runtime.backoff_exp = 3;
  runtime.backoff_until = 5 * kUsPerSec;
  runtime.quota.window_start = kUsPerSec;
  runtime.quota.charged_sz = 8192;
  runtime.quota.charged_us = 1.0 / 3.0;
  runtime.quota.esz = 4 * MiB;
  runtime.quota.total_charged_sz = 65536;
  runtime.quota.total_charged_us = 2.5;
  runtime.wmark.active = false;
  runtime.wmark.next_check = 1100000;
  cp.schemes.push_back(scheme);

  cp.recorder_every = kUsPerSec;
  cp.recorder_next = 2 * kUsPerSec;
  cp.recorder_tail.resize(2);
  cp.recorder_tail[0].at = kUsPerSec;
  cp.recorder_tail[0].regions = {{kBase, kBase + 2 * MiB, 3, 5},
                                 {kBase + 2 * MiB, kBase + 4 * MiB, 0, 1}};
  cp.recorder_tail[1].at = kUsPerSec;
  cp.recorder_tail[1].target_index = 1;
  cp.recorder_tail[1].regions = {{2 * GiB, 2 * GiB + 8 * MiB, 1, 9}};
  return cp;
}

/// One supervised kdamond over an anonymous heap, fault plane overridden
/// so DAOS_FAULTS cannot perturb the golden comparisons.
struct Rig {
  fault::FaultPlane plane;
  sim::System system;
  sim::AddressSpace space;
  lifecycle::KdamondSupervisor supervisor;

  Rig()
      : system(sim::MachineSpec{"ckpt", 4, 3.0, 4 * GiB},
               sim::SwapConfig::Zram()),
        space(1, &system.machine(), 3.0),
        supervisor(lifecycle::SupervisorConfig{}) {
    space.Map(kBase, kHeap, "heap");
    supervisor.AttachTo(system, {&space});
    system.SetFaultPlane(&plane);
  }

  void InstallOrDie(const char* schemes) {
    std::string error;
    ASSERT_TRUE(supervisor.InstallSchemesFromText(schemes, &error)) << error;
  }
};

// A governed scheme so the round trip crosses every serialized plane:
// stats, quota charges, priority weights, and the watermark gate.
constexpr char kGovernedScheme[] =
    "min max min min 1s max pageout quota_sz=4M quota_reset_ms=1000 "
    "prio_weights=3,7,1 wmarks=free_mem_rate,1000,500,1";

TEST(CheckpointFormatTest, HeaderBodyAndFooterPinned) {
  const std::string text = SerializeCheckpoint(TinyCheckpoint());
  EXPECT_EQ(text.rfind("daos-checkpoint v1\n", 0), 0u) << text;
  EXPECT_NE(text.find("\nat 123456\n"), std::string::npos);
  EXPECT_NE(text.find("\nrng 1 2 3 4\n"), std::string::npos);
  EXPECT_NE(text.find("\ntargets 1\n"), std::string::npos);
  EXPECT_NE(text.find("\nschemes 0\n"), std::string::npos);
  EXPECT_NE(text.find("\nrecorder 0 0 0\n"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 4), "end\n");
}

TEST(CheckpointFormatTest, SerializeParseSerializeIsIdentity) {
  const std::string text = SerializeCheckpoint(TinyCheckpoint());
  lifecycle::CheckpointError error;
  const std::optional<lifecycle::Checkpoint> parsed =
      lifecycle::ParseCheckpoint(text, &error);
  ASSERT_TRUE(parsed.has_value())
      << "line " << error.line_number << ": " << error.message;
  EXPECT_EQ(parsed->at, 123456u);
  ASSERT_EQ(parsed->targets.size(), 1u);
  ASSERT_EQ(parsed->targets[0].regions.size(), 1u);
  EXPECT_EQ(parsed->targets[0].regions[0].age, 5u);
  EXPECT_EQ(parsed->sched.counters.cpu_us, 0.7);
  EXPECT_EQ(SerializeCheckpoint(*parsed), text);
}

TEST(CheckpointRoundTripTest, LiveCaptureReserializesExactly) {
  Rig rig;
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie(kGovernedScheme);
  rig.system.Run(3 * kUsPerSec);

  const std::string text = rig.supervisor.CaptureCheckpointText();
  lifecycle::CheckpointError error;
  const std::optional<lifecycle::Checkpoint> parsed =
      lifecycle::ParseCheckpoint(text, &error);
  ASSERT_TRUE(parsed.has_value())
      << "line " << error.line_number << ": " << error.message;
  // Hex-float doubles and raw integer fields reproduce the exact text —
  // the property that makes a checkpoint a faithful state fingerprint.
  EXPECT_EQ(SerializeCheckpoint(*parsed), text);
  EXPECT_GT(parsed->targets.at(0).regions.size(), 0u);
  ASSERT_EQ(parsed->schemes.size(), 1u);
  EXPECT_GT(parsed->schemes[0].stats().nr_tried, 0u);
}

// The two goldens below were recorded before the checkpoint format moved to
// a single record walk. Every other test here is a round trip, which a
// field reordered in both the writer and the parser would still pass; these
// pin the bytes themselves.
TEST(CheckpointFormatTest, FullCheckpointTextPinned) {
  const std::string expected = kFullCheckpointText;
  const std::string text = SerializeCheckpoint(FullCheckpoint());
  EXPECT_EQ(text, expected);
  lifecycle::CheckpointError error;
  const std::optional<lifecycle::Checkpoint> parsed =
      lifecycle::ParseCheckpoint(expected, &error);
  ASSERT_TRUE(parsed.has_value())
      << "line " << error.line_number << ": " << error.message;
  EXPECT_EQ(SerializeCheckpoint(*parsed), expected);
  EXPECT_EQ(parsed->sched.target_layout_gens,
            (std::vector<std::uint64_t>{1, 4}));
  EXPECT_EQ(parsed->targets.at(1).regions.size(), 2u);
  EXPECT_EQ(parsed->schemes.at(0).runtime().quota.charged_us, 1.0 / 3.0);
  EXPECT_EQ(parsed->recorder_tail.at(1).target_index, 1);
}

TEST(CheckpointRoundTripTest, LiveCaptureBytesPinned) {
  Rig rig;
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie(kGovernedScheme);
  rig.system.Run(3 * kUsPerSec);

  const std::string text = rig.supervisor.CaptureCheckpointText();
  Fnv1a digest;
  digest.Mix(text);
  EXPECT_EQ(text.size(), 30329u);
  EXPECT_EQ(digest.value(), 0xaf1d3387ddc60448ULL);
}

TEST(CheckpointRoundTripTest, RestoreIsIdentityOverFollowingWindows) {
  // Identical systems stepped in lockstep stay bit-identical (the sim is
  // deterministic). Mid-run, B's stack is torn down and rebuilt from its
  // own checkpoint text, and C's from its own checkpoint value (the
  // in-process restore point). If both restores are lossless, all three
  // must remain indistinguishable for every window after them.
  Rig a;
  Rig b;
  Rig c;
  Rig* const rigs[] = {&a, &b, &c};
  for (Rig* rig : rigs) {
    rig->space.TouchRange(kBase, kBase + kHeap, true, 0);
    rig->InstallOrDie(kGovernedScheme);
  }

  auto run_lockstep = [&](SimTimeUs until) {
    while (a.system.Now() < until) {
      // A shifting hot set so splits, merges, quota charging and the
      // recorder all stay busy across the restore point.
      if (a.system.Now() % (250 * kUsPerMs) == 0) {
        const Addr hot =
            kBase + (a.system.Now() / (250 * kUsPerMs) % 4) * (8 * MiB);
        for (Rig* rig : rigs)
          rig->space.TouchRange(hot, hot + 8 * MiB, true, rig->system.Now());
      }
      for (Rig* rig : rigs) rig->system.Step();
    }
  };

  run_lockstep(2 * kUsPerSec);
  const std::string at_2s_a = a.supervisor.CaptureCheckpointText();
  const std::string at_2s_b = b.supervisor.CaptureCheckpointText();
  const lifecycle::Checkpoint at_2s_c = c.supervisor.Capture();
  ASSERT_EQ(at_2s_a, at_2s_b) << "lockstep baseline diverged";
  ASSERT_EQ(SerializeCheckpoint(at_2s_c), at_2s_a)
      << "lockstep baseline diverged";

  std::string error;
  ASSERT_TRUE(b.supervisor.RestoreFromText(at_2s_b, &error)) << error;
  EXPECT_EQ(b.supervisor.counters().restores, 1u);
  ASSERT_TRUE(c.supervisor.Restore(at_2s_c, &error)) << error;
  EXPECT_EQ(c.supervisor.counters().restores, 1u);

  run_lockstep(4 * kUsPerSec);
  const std::string at_4s_a = a.supervisor.CaptureCheckpointText();
  EXPECT_EQ(at_4s_a, b.supervisor.CaptureCheckpointText());
  EXPECT_EQ(at_4s_a, c.supervisor.CaptureCheckpointText())
      << "the value-restored twin drifted from the text-restored one";
}

TEST(CheckpointRoundTripTest, RejectedRestoreLeavesRunningStackUntouched) {
  Rig rig;
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie(kGovernedScheme);
  rig.system.Run(2 * kUsPerSec);

  const std::string before = rig.supervisor.CaptureCheckpointText();
  std::string error;
  EXPECT_FALSE(rig.supervisor.RestoreFromText("daos-checkpoint v2\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_EQ(rig.supervisor.counters().restores, 0u);
  // Parse errors are detected before the old stack is torn down.
  EXPECT_EQ(before, rig.supervisor.CaptureCheckpointText());
}

TEST(CheckpointRoundTripTest, TargetCountMismatchFailsRestore) {
  lifecycle::Checkpoint cp = TinyCheckpoint();
  cp.targets.push_back(cp.targets[0]);  // claims two targets
  cp.sched.target_layout_gens = {1, 1};

  Rig rig;  // factory creates exactly one target
  std::string error;
  EXPECT_FALSE(
      rig.supervisor.RestoreFromText(SerializeCheckpoint(cp), &error));
  EXPECT_NE(error.find("2 targets"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Commit carry rules (SchemesEngine::CommitSchemes), read through the
// checkpoint's per-scheme records: the one view of a scheme's runtime that
// does not depend on where the engine keeps it.
// ---------------------------------------------------------------------------

/// One scheme's runtime records, as SerializeCheckpoint prints them.
struct SchemeRecords {
  std::string stats;
  std::string backoff;
  std::string quota;
  std::string wmark;
  bool operator==(const SchemeRecords&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SchemeRecords& r) {
  return os << "{" << r.stats << " | " << r.backoff << " | " << r.quota
            << " | " << r.wmark << "}";
}

/// The records every freshly installed scheme carries.
const SchemeRecords kColdRecords{
    "stats 0 0 0 0 0 0 0 0 0 0 1", "backoff 0 0",
    "quota 0 0 0x0p+0 18446744073709551615 0 0x0p+0", "wmark 1 0"};

std::vector<SchemeRecords> RuntimeRecords(const std::string& text) {
  std::vector<SchemeRecords> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string key = line.substr(0, line.find(' '));
    if (key == "stats") out.emplace_back().stats = line;
    if (out.empty()) continue;
    if (key == "backoff") out.back().backoff = line;
    if (key == "quota") out.back().quota = line;
    if (key == "wmark") out.back().wmark = line;
  }
  return out;
}

// Scheme 0 and 1 share their bounds (one identity, two quotas) and fail
// every pageout, so both are parked by the backoff with charges in their
// windows; scheme 2 is gated off by its watermark on the first check.
constexpr char kCarrySchemes[] =
    "min max min min 1s max pageout quota_sz=4M\n"
    "min max min min 1s max pageout quota_sz=2M\n"
    "min max min min min max stat wmarks=free_mem_rate,900,500,1\n";

/// Drives a fresh engine over a failing swap device, commits `next` and
/// returns the records before and after the commit.
struct CarryResult {
  std::vector<SchemeRecords> before;
  std::vector<SchemeRecords> after;
  damos::SchemesEngine::CommitOutcome outcome;
};

CarryResult CommitAfterRun(const char* next) {
  fault::FaultPlane plane;  // own plane: DAOS_FAULTS cannot move the runtime
  plane.Arm(fault::kSwapWriteError, fault::FaultSpec{1.0});
  sim::Machine machine(sim::MachineSpec{"carry", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  machine.SetFaultPlane(&plane);
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kBase, kHeap, "heap");
  space.TouchRange(kBase, kBase + kHeap, true, 0);
  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults(),
                          /*seed=*/42);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));
  damos::SchemesEngine engine;
  engine.SetMachine(&machine);
  engine.Attach(ctx);
  EXPECT_TRUE(engine.InstallFromText(kCarrySchemes));
  SimTimeUs now = 0;
  for (; now < 3 * kUsPerSec; now += ctx.attrs().sampling_interval)
    ctx.Step(now, ctx.attrs().sampling_interval);

  CarryResult result;
  result.before = RuntimeRecords(SerializeCheckpoint(
      lifecycle::CaptureCheckpoint(ctx, engine, nullptr, now)));
  damos::ParseResult parsed = damos::ParseSchemes(next);
  EXPECT_TRUE(parsed.ok());
  result.outcome = engine.CommitSchemes(std::move(parsed.schemes));
  result.after = RuntimeRecords(SerializeCheckpoint(
      lifecycle::CaptureCheckpoint(ctx, engine, nullptr, now)));
  return result;
}

SchemeRecords WithQuota(SchemeRecords r, const SchemeRecords& from) {
  r.quota = from.quota;
  return r;
}

TEST(CheckpointCarryRulesTest, RunLeavesEveryRuntimeFamilyWarm) {
  const CarryResult r = CommitAfterRun(kCarrySchemes);
  ASSERT_EQ(r.before.size(), 3u);
  for (int si : {0, 1}) {
    EXPECT_NE(r.before[si].backoff, kColdRecords.backoff) << si;
    EXPECT_NE(r.before[si].quota, kColdRecords.quota) << si;
    EXPECT_NE(r.before[si].stats, kColdRecords.stats) << si;
  }
  EXPECT_NE(r.before[0].quota, r.before[1].quota);
  EXPECT_NE(r.before[2].wmark, kColdRecords.wmark);
  EXPECT_EQ(r.before[2].stats.back(), '0');  // gate closed in the stats too
}

TEST(CheckpointCarryRulesTest, SameSetCarriesEverything) {
  const CarryResult r = CommitAfterRun(kCarrySchemes);
  EXPECT_EQ(r.after, r.before);
  EXPECT_EQ(r.outcome.carried, 3u);
  EXPECT_EQ(r.outcome.fresh, 0u);
  EXPECT_EQ(r.outcome.quota_resets, 0u);
}

TEST(CheckpointCarryRulesTest, ChangedQuotaZeroesOnlyTheQuota) {
  const CarryResult r = CommitAfterRun(
      "min max min min 1s max pageout quota_sz=8M\n"
      "min max min min 1s max pageout quota_sz=2M\n"
      "min max min min min max stat wmarks=free_mem_rate,900,500,1\n");
  ASSERT_EQ(r.after.size(), 3u);
  EXPECT_EQ(r.after[0], WithQuota(r.before[0], kColdRecords));
  EXPECT_EQ(r.after[1], r.before[1]);
  EXPECT_EQ(r.after[2], r.before[2]);
  EXPECT_EQ(r.outcome.quota_resets, 1u);
}

TEST(CheckpointCarryRulesTest, ChangedWmarksReopensTheGate) {
  const CarryResult r = CommitAfterRun(
      "min max min min 1s max pageout quota_sz=4M\n"
      "min max min min 1s max pageout quota_sz=2M\n"
      "min max min min min max stat wmarks=free_mem_rate,950,500,1\n");
  ASSERT_EQ(r.after.size(), 3u);
  EXPECT_EQ(r.after[0], r.before[0]);
  EXPECT_EQ(r.after[1], r.before[1]);
  SchemeRecords reopened = r.before[2];
  reopened.stats.back() = '1';
  reopened.wmark = kColdRecords.wmark;
  EXPECT_EQ(r.after[2], reopened);
  EXPECT_EQ(r.outcome.carried, 3u);
  EXPECT_EQ(r.outcome.quota_resets, 0u);
}

TEST(CheckpointCarryRulesTest, NewBoundsStartCold) {
  const CarryResult r = CommitAfterRun(
      "min max min min 2s max pageout quota_sz=4M\n"
      "min max min min min max stat wmarks=free_mem_rate,900,500,1\n");
  ASSERT_EQ(r.after.size(), 2u);
  EXPECT_EQ(r.after[0], kColdRecords);
  EXPECT_EQ(r.after[1], r.before[2]);
  EXPECT_EQ(r.outcome.carried, 1u);
  EXPECT_EQ(r.outcome.fresh, 1u);
}

TEST(CheckpointCarryRulesTest, EqualBoundsTakeTheFirstUntakenSlot) {
  const CarryResult r = CommitAfterRun(
      "min max min min 1s max pageout quota_sz=4M\n"
      "min max min min 1s max pageout quota_sz=4M\n"
      "min max min min 1s max pageout quota_sz=4M\n");
  ASSERT_EQ(r.after.size(), 3u);
  EXPECT_EQ(r.after[0], r.before[0]);
  EXPECT_EQ(r.after[1], WithQuota(r.before[1], kColdRecords));
  EXPECT_EQ(r.after[2], kColdRecords);
  EXPECT_EQ(r.outcome.carried, 2u);
  EXPECT_EQ(r.outcome.fresh, 1u);
  EXPECT_EQ(r.outcome.quota_resets, 1u);
}

}  // namespace
