// Tiered-memory substrate properties (labeled "tier;property"): the
// invariants the multi-tier subsystem must hold end-to-end.
//
//   - geometry text round-trips through ToText/ParseTierGeometry
//   - a single-tier geometry is "untiered": runs stay bit-identical to the
//     pre-tier engine (pinned to the same goldens the governor suite uses)
//   - pages are conserved across migrations even with tier.migrate_fail
//     injected: every resident page is charged to exactly one tier, and
//     non-elastic tiers never exceed capacity
//   - migrate scheme charges stay inside the governor quota window
//   - a tiered run records and replays bit-identically (DESIGN §11 holds
//     with the tier substrate armed)
//   - tiered runs are deterministic under the parallel runner (DAOS_JOBS
//     must not change results)
//   - FreeMemRatePermille gates on the *fast tier's* free rate when tiered
//     and keeps the legacy whole-DRAM meaning untiered
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/runner.hpp"
#include "damon/monitor.hpp"
#include "damon/primitives.hpp"
#include "damos/engine.hpp"
#include "damos/parser.hpp"
#include "fault/fault.hpp"
#include "governor/governor.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "sim/tier.hpp"
#include "trace/writer.hpp"
#include "util/file.hpp"
#include "util/units.hpp"
#include "workload/profile.hpp"

namespace daos {
namespace {

constexpr Addr kBase = 0x10000000;
constexpr std::uint64_t kHeap = 64 * MiB;
constexpr std::uint64_t kHot = 8 * MiB;

sim::TierGeometry GeometryOrDie(const char* text) {
  sim::TierGeometry geo;
  std::string error;
  if (!sim::ParseTierGeometry(text, &geo, &error)) {
    ADD_FAILURE() << "geometry rejected: " << error;
  }
  return geo;
}

std::vector<damos::Scheme> MigrateSchemesOrDie(const char* text) {
  const damos::ParseResult parsed = damos::ParseSchemes(text);
  if (!parsed.ok()) {
    ADD_FAILURE() << "schemes rejected: " << parsed.errors[0].message;
  }
  return parsed.schemes;
}

// --- geometry text ----------------------------------------------------------

TEST(TierGeometryTest, ToTextParseRoundTrip) {
  const sim::TierGeometry geo = GeometryOrDie(
      "# fastest first\n"
      "dram 96M\n"
      "\n"
      "cxl 1G lat=0.6 bw=8G\n"
      "file 4G lat=2.0 bw=1G\n");
  ASSERT_EQ(geo.size(), 3u);
  // Values that already read back keep their compact text.
  EXPECT_EQ(geo.ToText(), "dram 96.0M\ncxl 1.0G lat=0.6 bw=8.0G\n"
                          "file 4.0G lat=2 bw=1.0G\n");

  // Every row parses, prints, and parses back to the same geometry. The
  // rows after the first lost precision in FormatSize's one decimal place
  // or in %g's six significant digits.
  const char* const rows[] = {
      "dram 96M\ncxl 1G lat=0.6 bw=8G\nfile 4G lat=2.0 bw=1G\n",
      "dram 1500K\n",
      "dram 64M\ncxl 3000M\n",
      "dram 1025\n",
      "dram 64M\ncxl 1G bw=1000000\n",
      "dram 64M\ncxl 1G lat=0.1234567\n",
  };
  for (const char* row : rows) {
    const sim::TierGeometry in = GeometryOrDie(row);
    sim::TierGeometry again;
    std::string error;
    ASSERT_TRUE(sim::ParseTierGeometry(in.ToText(), &again, &error))
        << row << error;
    ASSERT_EQ(again.size(), in.size()) << row;
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(again.tiers[i].kind, in.tiers[i].kind) << row;
      EXPECT_EQ(again.tiers[i].capacity_bytes, in.tiers[i].capacity_bytes)
          << row << "reads back as\n" << in.ToText();
      EXPECT_EQ(again.tiers[i].access_extra_us, in.tiers[i].access_extra_us)
          << row << "reads back as\n" << in.ToText();
      EXPECT_EQ(again.tiers[i].migrate_bw_bytes_per_s,
                in.tiers[i].migrate_bw_bytes_per_s)
          << row << "reads back as\n" << in.ToText();
    }
  }
}

TEST(TierGeometryTest, SingleTierGeometryIsUntiered) {
  const sim::TierGeometry geo = GeometryOrDie("dram 4G\n");
  EXPECT_FALSE(geo.tiered());

  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  std::string error;
  ASSERT_TRUE(machine.SetTierGeometry(geo, &error)) << error;
  EXPECT_FALSE(machine.tiered());
  // Untiered placement: everything lands in "tier 0" and FaultIn takes the
  // single disarmed branch.
  EXPECT_EQ(machine.AllocTier(), 0u);
}

TEST(TierGeometryTest, GeometryRefusedWhileFramesInUse) {
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kBase, 4 * MiB, "heap");
  space.TouchRange(kBase, kBase + 4 * MiB, true, 0);

  std::string error;
  EXPECT_FALSE(machine.SetTierGeometry(
      GeometryOrDie("dram 16M\ncxl 64M lat=0.6\n"), &error));
  EXPECT_NE(error.find("no frame is in use"), std::string::npos) << error;
  EXPECT_FALSE(machine.tiered());
}

// --- tier planes ------------------------------------------------------------

// A page's tier index lives in three bit planes. Every index round-trips,
// and rewriting one page's tier leaves its neighbours' bits alone.
TEST(TierPlanes, EveryTierRoundTrips) {
  sim::Vma vma(kBase, kBase + 130 * kPageSize, "v");
  for (std::size_t i = 0; i < vma.page_count(); ++i)
    vma.SetTierAt(i, static_cast<std::uint16_t>(i % sim::kMaxTiers));
  for (std::size_t i = 0; i < vma.page_count(); ++i)
    EXPECT_EQ(vma.TierAt(i), i % sim::kMaxTiers) << "page " << i;
  for (std::uint16_t t = 0; t < sim::kMaxTiers; ++t) {
    vma.SetTierAt(64, t);
    EXPECT_EQ(vma.TierAt(64), t);
    EXPECT_EQ(vma.TierAt(63), 63 % sim::kMaxTiers);
    EXPECT_EQ(vma.TierAt(65), 65 % sim::kMaxTiers);
  }
}

// The machine's per-tier charges are the tier planes of the present pages,
// counted: through placement, migration both ways, eviction and unmap.
TEST(TierPlanes, TierChargesMatchPresentPagesThroughEveryMove) {
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  std::string error;
  ASSERT_TRUE(machine.SetTierGeometry(
      GeometryOrDie("dram 4M\ncxl 8M lat=0.6\nfile 64M lat=2.0 bw=1G\n"),
      &error))
      << error;
  constexpr std::size_t kTiers = 3;
  sim::AddressSpace space(1, &machine, 3.0);
  ASSERT_NE(space.Map(kBase, 32 * MiB, "heap"), nullptr);

  const auto check = [&](const char* when) {
    std::vector<std::uint64_t> counted(kTiers, 0);
    for (const sim::Vma& vma : space.vmas()) {
      for (std::size_t i = 0; i < vma.page_count(); ++i) {
        if (vma.TestBit(sim::PageBit::kPresent, i)) {
          ASSERT_LT(vma.TierAt(i), kTiers) << when << ", page " << i;
          ++counted[vma.TierAt(i)];
        } else {
          ASSERT_EQ(vma.TierAt(i), 0u) << when << ", absent page " << i;
        }
      }
    }
    for (std::uint16_t t = 0; t < kTiers; ++t)
      EXPECT_EQ(machine.TierUsedPages(t), counted[t]) << when << ", tier " << t;
  };

  // First-fit placement fills dram, then cxl, then spills into file.
  space.TouchRange(kBase, kBase + 32 * MiB, true, 0);
  check("after placement");
  for (std::uint16_t t = 0; t < kTiers; ++t)
    EXPECT_GT(machine.TierUsedPages(t), 0u) << "tier " << t;

  space.MigrateRange(kBase, kBase + 2 * MiB, kUsPerSec, /*promote=*/false);
  check("after demotion");
  space.MigrateRange(kBase + 24 * MiB, kBase + 32 * MiB, kUsPerSec,
                     /*promote=*/true);
  check("after promotion");
  EXPECT_GT(machine.counters().tier_demoted_pages, 0u);
  EXPECT_GT(machine.counters().tier_promoted_pages, 0u);

  EXPECT_GT(space.PageOutRange(kBase, kBase + 16 * MiB, 2 * kUsPerSec), 0u);
  check("after eviction");

  space.UnmapVma(kBase);
  for (std::uint16_t t = 0; t < kTiers; ++t)
    EXPECT_EQ(machine.TierUsedPages(t), 0u) << "after unmap, tier " << t;
}

// A VMA mapped while the machine was untiered gets its last-touch times
// when the machine becomes tiered, so its touches can record them.
TEST(TierPlanes, VmaMappedBeforeTieringRecordsTouchTimes) {
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  ASSERT_NE(space.Map(kBase, 4 * MiB, "heap"), nullptr);
  std::string error;
  ASSERT_TRUE(machine.SetTierGeometry(
      GeometryOrDie("dram 1M\ncxl 8M lat=0.6\n"), &error))
      << error;
  sim::TouchStats st;
  space.TouchPage(kBase + 5 * kPageSize, true, 7 * kUsPerMs, st);
  space.TouchRange(kBase + 2 * MiB, kBase + 4 * MiB, false, 9 * kUsPerMs);
  const sim::Vma& vma = space.vmas()[0];
  EXPECT_EQ(vma.PageAt(kBase + 5 * kPageSize).last_touch_ms, 7u);
  EXPECT_EQ(vma.PageAt(kBase + 5 * kPageSize).tier, 0u);
  EXPECT_EQ(vma.PageAt(kBase + 4 * MiB - kPageSize).last_touch_ms, 9u);
  EXPECT_EQ(vma.PageAt(kBase + 4 * MiB - kPageSize).tier, 1u);
}

// --- disarmed bit-identity --------------------------------------------------

TEST(TieringPropertyTest, SingleTierRunMatchesPreTierGoldens) {
  if (std::getenv("DAOS_FAULTS") != nullptr)
    GTEST_SKIP() << "golden numbers assume a fault-free run";

  // Exactly the scenario test_governor_properties.cpp pins against the
  // pre-governor engine (commit 972e060): 64M heap, 8M re-touched head,
  // Prcl(2s) for 6 simulated seconds. Installing a *single-tier* geometry
  // must leave the machine untiered and every number untouched — the
  // "disarmed is one branch" contract of the tier substrate.
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  std::string error;
  ASSERT_TRUE(machine.SetTierGeometry(GeometryOrDie("dram 4G\n"), &error))
      << error;
  ASSERT_FALSE(machine.tiered());

  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kBase, kHeap, "heap");
  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults(),
                          /*seed=*/42);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));
  damos::SchemesEngine engine;
  engine.Install({damos::Scheme::Prcl(2 * kUsPerSec)});
  engine.Attach(ctx);
  space.TouchRange(kBase, kBase + kHeap, true, 0);
  for (SimTimeUs now = 0; now < 6 * kUsPerSec;
       now += ctx.attrs().sampling_interval) {
    space.TouchRange(kBase, kBase + kHot, false, now);
    ctx.Step(now, ctx.attrs().sampling_interval);
  }

  const damos::SchemeStats& st = engine.schemes()[0].stats();
  EXPECT_EQ(space.swapped_pages(), 14331u);
  EXPECT_EQ(space.resident_pages(), 2053u);
  EXPECT_EQ(st.nr_tried, 1031u);
  EXPECT_EQ(st.sz_tried, 2165346304u);
  EXPECT_EQ(st.nr_applied, 28u);
  EXPECT_EQ(st.sz_applied, 58699776u);
}

// --- page conservation under injected migration failures --------------------

TEST(TieringPropertyTest, PageConservationUnderMigrateFaults) {
  // Own plane (not FromEnv) so the failure probability is pinned: every
  // fifth-ish migration attempt fails mid-flight. The invariant: a failed
  // migration leaves the page charged to its source tier — at every step
  // the per-tier charges sum exactly to the resident pages, and no
  // non-elastic tier is ever over capacity.
  fault::FaultPlane plane(/*seed=*/7);
  fault::FaultSpec spec;
  spec.probability = 0.2;
  plane.Arm(fault::kTierMigrateFail, spec);

  sim::Machine machine(sim::MachineSpec{"tier", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  machine.SetFaultPlane(&plane);
  std::string error;
  ASSERT_TRUE(machine.SetTierGeometry(
      GeometryOrDie("dram 8M\ncxl 24M lat=0.6\nfile 64M lat=2.0 bw=1G"),
      &error))
      << error;

  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kBase, kHeap, "heap");
  space.TouchRange(kBase, kBase + kHeap, true, 0);

  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults(),
                          /*seed=*/42);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));
  damos::SchemesEngine engine;
  engine.SetMachine(&machine);
  engine.Attach(ctx);
  ASSERT_TRUE(engine.InstallFromText(
      "min max 1 max min max migrate_hot quota_sz=16M quota_reset_ms=500\n"
      "min max min min 1s max migrate_cold quota_sz=16M "
      "quota_reset_ms=500\n"));

  const auto tier_pages_total = [&machine] {
    std::uint64_t sum = 0;
    for (std::size_t t = 0; t < machine.tier_geometry().size(); ++t)
      sum += machine.TierUsedPages(static_cast<std::uint16_t>(t));
    return sum;
  };

  // The hot window sits at the *end* of the heap — populate order put it in
  // the elastic file tier, so migrate_hot has real promotion work, and the
  // 8M dram tier (full since populate) forces migrate_cold to make room.
  for (SimTimeUs now = 0; now < 8 * kUsPerSec;
       now += ctx.attrs().sampling_interval) {
    space.TouchRange(kBase + kHeap - kHot, kBase + kHeap, false, now);
    ctx.Step(now, ctx.attrs().sampling_interval);
    ASSERT_EQ(tier_pages_total(), space.resident_pages())
        << "tier charges diverged from residency at t=" << now;
    for (std::size_t t = 0; t + 1 < machine.tier_geometry().size(); ++t) {
      ASSERT_LE(machine.TierUsedPages(static_cast<std::uint16_t>(t)) *
                    kPageSize,
                machine.tier_geometry().tiers[t].capacity_bytes)
          << "tier " << t << " over capacity at t=" << now;
    }
  }

  // The scenario must actually have exercised the fault path, both
  // migration directions, and the blocked-promotion fallback.
  const sim::MachineCounters& mc = machine.counters();
  EXPECT_GT(mc.tier_promoted_pages, 0u);
  EXPECT_GT(mc.tier_demoted_pages, 0u);
  EXPECT_GT(mc.tier_migrate_fails, 0u);
  EXPECT_GT(plane.Point(fault::kTierMigrateFail).fires(), 0u);
  // dbgfs surfaces the same counters.
  const std::string status = machine.TierStatusText();
  EXPECT_NE(status.find("dram"), std::string::npos) << status;
  EXPECT_NE(status.find("migrate_fails"), std::string::npos) << status;
}

// --- migration charges stay inside the governor quota -----------------------

TEST(TieringPropertyTest, MigrationChargeNeverExceedsQuota) {
  std::unique_ptr<fault::FaultPlane> faults = fault::FaultPlane::FromEnv();
  sim::Machine machine(sim::MachineSpec{"tier", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  if (faults != nullptr) machine.SetFaultPlane(faults.get());
  std::string error;
  ASSERT_TRUE(machine.SetTierGeometry(
      GeometryOrDie("dram 16M\ncxl 96M lat=0.6 bw=8G"), &error))
      << error;

  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kBase, kHeap, "heap");
  space.TouchRange(kBase, kBase + kHeap, true, 0);

  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults(),
                          /*seed=*/42);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));
  damos::SchemesEngine engine;
  engine.SetMachine(&machine);
  engine.Attach(ctx);
  constexpr std::uint64_t kQuota = 4 * MiB;
  ASSERT_TRUE(engine.InstallFromText(
      "min max 1 max min max migrate_hot quota_sz=4M quota_reset_ms=1000\n"));

  // Same accounting identity the governor suite uses: total - in_flight is
  // the charge of *completed* windows, so deltas between rolls bound each
  // closed window. Migration charges are attempt-based — an injected
  // tier.migrate_fail must never let the scheme overdraw.
  const governor::QuotaState& qs = engine.schemes()[0].runtime().quota;
  std::uint64_t completed_prev = 0;
  std::uint64_t closed_windows = 0;
  for (SimTimeUs now = 0; now < 8 * kUsPerSec;
       now += ctx.attrs().sampling_interval) {
    space.TouchRange(kBase + kHeap - kHot, kBase + kHeap, false, now);
    ctx.Step(now, ctx.attrs().sampling_interval);
    ASSERT_LE(qs.charged_sz, kQuota);
    const std::uint64_t completed = qs.total_charged_sz - qs.charged_sz;
    if (completed != completed_prev) {
      ASSERT_LE(completed - completed_prev, kQuota);
      completed_prev = completed;
      ++closed_windows;
    }
  }

  const damos::SchemeStats& st = engine.schemes()[0].stats();
  EXPECT_GT(st.qt_exceeds, 0u);
  EXPECT_GE(closed_windows, 3u);
  EXPECT_GT(qs.total_charged_sz, 0u);
  EXPECT_LE(st.sz_applied, qs.total_charged_sz);
}

// --- tiered record -> replay bit-identity -----------------------------------

workload::WorkloadProfile TierTestProfile() {
  workload::WorkloadProfile p;
  p.name = "test/tiering";
  p.suite = "test";
  p.data_bytes = 96 * MiB;
  p.runtime_s = 8.0;
  p.mem_boundness = 0.6;
  p.thp_gain = 0.0;
  p.noise = 0.0;
  p.pattern = workload::PatternKind::kPhased;
  p.phase_period_s = 3.0;
  p.groups = {{0.5, 0.0, 1.0, 0.3}, {0.25, 2.0, 1.0, 0.3},
              {0.25, -1.0, 1.0, 0.1}};
  return p;
}

constexpr const char* kTestMigrateSchemes =
    "min max 1 max min max migrate_hot quota_sz=32M quota_reset_ms=1000\n"
    "min max min min 1s max migrate_cold quota_sz=32M quota_reset_ms=1000\n";

void ExpectResultsIdentical(const analysis::ExperimentResult& a,
                            const analysis::ExperimentResult& b) {
  EXPECT_EQ(a.runtime_s, b.runtime_s);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.avg_rss_bytes, b.avg_rss_bytes);
  EXPECT_EQ(a.peak_rss_bytes, b.peak_rss_bytes);
  EXPECT_EQ(a.major_faults, b.major_faults);
  EXPECT_EQ(a.interference_s, b.interference_s);
  ASSERT_EQ(a.scheme_stats.size(), b.scheme_stats.size());
  for (std::size_t i = 0; i < a.scheme_stats.size(); ++i) {
    EXPECT_EQ(a.scheme_stats[i].nr_tried, b.scheme_stats[i].nr_tried);
    EXPECT_EQ(a.scheme_stats[i].sz_tried, b.scheme_stats[i].sz_tried);
    EXPECT_EQ(a.scheme_stats[i].nr_applied, b.scheme_stats[i].nr_applied);
    EXPECT_EQ(a.scheme_stats[i].sz_applied, b.scheme_stats[i].sz_applied);
  }
  // The tier plane's counters and the mismatch gauge must agree too.
  for (const char* name :
       {"sim.tier.promoted_pages", "sim.tier.demoted_pages",
        "sim.tier.slow_touches", "sim.tier.migrate_fails",
        "sim.tier.hot_mismatch_permille"}) {
    EXPECT_EQ(a.telemetry.Value(name), b.telemetry.Value(name)) << name;
  }
}

TEST(TieringPropertyTest, TieredRecordReplayBitIdentity) {
  const workload::WorkloadProfile profile = TierTestProfile();
  const std::vector<damos::Scheme> schemes =
      MigrateSchemesOrDie(kTestMigrateSchemes);

  analysis::ExperimentOptions options;
  options.apply_runtime_noise = false;
  options.seed = 7;
  options.tiers = GeometryOrDie("dram 24M\ncxl 96M lat=0.6 bw=8G");
  trace::TraceWriter writer([&profile] {
    trace::TraceMeta meta;
    meta.name = profile.name;
    meta.data_bytes = profile.data_bytes;
    meta.runtime_s = profile.runtime_s;
    meta.mem_boundness = profile.mem_boundness;
    return meta;
  }());
  options.record_tap = &writer;
  const analysis::ExperimentResult recorded = analysis::RunWorkload(
      profile, analysis::Config::kSchemes, options, &schemes);
  ASSERT_TRUE(recorded.finished);
  ASSERT_GT(writer.events(), 0u);
  // The tiered run must have done access-aware placement worth replaying,
  // unless the workload was OOM-killed before it could. Under
  // alloc.frame_fail every failed allocation enters a direct reclaim that
  // frees nothing while the footprint is still being populated, so the run
  // can die in its first quantum; the identity check below still holds.
  if (recorded.telemetry.Value("sim.oom_kills") == 0.0) {
    EXPECT_GT(recorded.telemetry.Value("sim.tier.promoted_pages"), 0.0);
  }

  const std::string path = ::testing::TempDir() + "/tiering_replay.dtr";
  std::string error;
  ASSERT_TRUE(WriteFile(path, writer.Finish(), &error)) << error;
  const std::optional<workload::WorkloadProfile> replay_profile =
      workload::ResolveProfile("trace:" + path, &error);
  ASSERT_TRUE(replay_profile.has_value()) << error;

  analysis::ExperimentOptions replay_options;
  replay_options.apply_runtime_noise = false;
  replay_options.seed = 7;
  replay_options.tiers = options.tiers;
  const analysis::ExperimentResult replayed = analysis::RunWorkload(
      *replay_profile, analysis::Config::kSchemes, replay_options, &schemes);

  ExpectResultsIdentical(recorded, replayed);
}

// --- parallel-runner determinism with tiers armed ---------------------------

TEST(TieringPropertyTest, TieredRunsDeterministicUnderParallelRunner) {
  // The DAOS_JOBS contract (1 worker vs 4 workers, bit-identical results)
  // must survive the tier substrate in both its forms: the LRU balancer
  // and DAMOS migrate schemes under quotas.
  const sim::TierGeometry tiers =
      GeometryOrDie("dram 24M\ncxl 96M lat=0.6 bw=8G");
  const std::vector<damos::Scheme> schemes =
      MigrateSchemesOrDie(kTestMigrateSchemes);

  std::vector<analysis::RunSpec> specs;
  for (const bool damos_run : {false, true}) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      analysis::RunSpec spec;
      spec.profile = TierTestProfile();
      spec.options.apply_runtime_noise = false;
      spec.options.seed = seed;
      spec.options.tiers = tiers;
      if (damos_run) {
        spec.config = analysis::Config::kSchemes;
        spec.schemes = schemes;
      } else {
        spec.config = analysis::Config::kBaseline;
        spec.options.tier_policy = sim::TierPolicy::kLruDemote;
      }
      specs.push_back(spec);
    }
  }

  analysis::ParallelRunner serial(1);
  analysis::ParallelRunner parallel(4);
  const auto serial_results = serial.Run(specs);
  const auto parallel_results = parallel.Run(specs);
  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    ExpectResultsIdentical(serial_results[i], parallel_results[i]);
    // Full telemetry equality (same spec both sides, so every sample —
    // monitor, governor, tier — must match).
    const auto& sa = serial_results[i].telemetry.samples();
    const auto& sb = parallel_results[i].telemetry.samples();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t s = 0; s < sa.size(); ++s) {
      EXPECT_EQ(sa[s].name, sb[s].name);
      EXPECT_EQ(sa[s].value, sb[s].value) << sa[s].name;
      EXPECT_EQ(sa[s].count, sb[s].count) << sa[s].name;
    }
  }
}

// --- free_mem_rate watermark metric -----------------------------------------

TEST(FreeMemRateTest, UntieredLegacyGolden) {
  // The untiered formula is unchanged by the tier substrate: free permille
  // of the whole DRAM, exact integer arithmetic.
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 1 * GiB},
                       sim::SwapConfig::Zram());
  EXPECT_EQ(machine.FreeMemRatePermille(), 1000u);
  machine.ChargeFrames((512 * MiB) >> kPageShift);
  EXPECT_EQ(machine.FreeMemRatePermille(), 500u);
  machine.ChargeFrames((256 * MiB) >> kPageShift);
  EXPECT_EQ(machine.FreeMemRatePermille(), 250u);
  machine.UnchargeFrames((768 * MiB) >> kPageShift);
  EXPECT_EQ(machine.FreeMemRatePermille(), 1000u);
}

TEST(FreeMemRateTest, TieredGatesOnFastTierFreeRate) {
  // 16M dram + 1G cxl inside a 4G machine: once the fast tier fills, the
  // metric must read exhausted even though whole-machine DRAM is almost
  // idle — watermarks protect the scarce resource. The legacy formula
  // would report ~983‰ here; a wmark-gated scheme would never arm.
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  std::string error;
  ASSERT_TRUE(machine.SetTierGeometry(
      GeometryOrDie("dram 16M\ncxl 1G lat=0.6"), &error))
      << error;
  EXPECT_EQ(machine.FreeMemRatePermille(), 1000u);

  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kBase, kHeap, "heap");
  // First-fit fills dram first: 8M touched = half the fast tier.
  space.TouchRange(kBase, kBase + 8 * MiB, true, 0);
  EXPECT_EQ(machine.FreeMemRatePermille(), 500u);

  // The full 64M populate overflows into cxl; the fast tier is pinned full
  // and the metric reads 0 despite ~98% of machine DRAM being free.
  space.TouchRange(kBase, kBase + kHeap, true, 0);
  EXPECT_EQ(machine.TierUsedPages(0) * kPageSize, 16 * MiB);
  EXPECT_EQ(machine.FreeMemRatePermille(), 0u);
  EXPECT_LT(machine.dram_used_bytes(), machine.dram_capacity() / 10);
}

}  // namespace
}  // namespace daos
