// Governor property tests (labeled "governor;property"): end-to-end
// invariants of quota enforcement, prioritization, and watermark gating on
// a live monitor + engine, plus the bit-identity guarantee for disarmed
// schemes.
//
// Every scenario arms the environment fault plane (DAOS_FAULTS) on its
// machine, so the CI fault-stress job exercises the same invariants with
// swap.write_error injected: quota accounting is attempt-based, so a
// failing swap device must never let a scheme overdraw its window.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "damon/monitor.hpp"
#include "damon/primitives.hpp"
#include "damos/engine.hpp"
#include "fault/fault.hpp"
#include "governor/governor.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_buffer.hpp"
#include "util/units.hpp"

namespace daos::damos {
namespace {

constexpr Addr kBase = 0x10000000;
constexpr std::uint64_t kHeap = 64 * MiB;
constexpr std::uint64_t kHot = 8 * MiB;
constexpr std::uint64_t kQuota = 4 * MiB;

// ---------------------------------------------------------------------------
// Quota: per-window charge never exceeds the budget
// ---------------------------------------------------------------------------

TEST(GovernorPropertyTest, PerWindowChargeNeverExceedsQuota) {
  std::unique_ptr<fault::FaultPlane> faults = fault::FaultPlane::FromEnv();
  sim::Machine machine(sim::MachineSpec{"gov", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  if (faults != nullptr) machine.SetFaultPlane(faults.get());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kBase, kHeap, "heap");
  space.TouchRange(kBase, kBase + kHeap, true, 0);

  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults(),
                          /*seed=*/42);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));
  SchemesEngine engine;
  engine.SetMachine(&machine);
  engine.Attach(ctx);
  ASSERT_TRUE(engine.InstallFromText(
      "min max min min 2s max pageout quota_sz=4M quota_reset_ms=1000\n"));

  // `total_charged_sz - charged_sz` is exactly the charge accumulated in
  // *completed* windows (rolls zero the window charge, never the lifetime
  // total), so its delta between two rolls is the closed window's charge.
  const governor::QuotaState& qs = engine.schemes()[0].runtime().quota;
  std::uint64_t completed_prev = 0;
  std::uint64_t closed_windows = 0;
  for (SimTimeUs now = 0; now < 8 * kUsPerSec;
       now += ctx.attrs().sampling_interval) {
    ctx.Step(now, ctx.attrs().sampling_interval);
    // The in-flight window must never be overdrawn — the ISSUE bound is
    // "quota + one region"; attempt clipping makes it exact.
    ASSERT_LE(qs.charged_sz, kQuota);
    const std::uint64_t completed = qs.total_charged_sz - qs.charged_sz;
    if (completed != completed_prev) {
      ASSERT_LE(completed - completed_prev, kQuota);
      completed_prev = completed;
      ++closed_windows;
    }
  }

  const SchemeStats& st = engine.schemes()[0].stats();
  // The 64M heap against a 4M/s budget must hit the wall repeatedly...
  EXPECT_GT(st.qt_exceeds, 0u);
  EXPECT_GT(st.sz_quota_exceeded, 0u);
  EXPECT_GE(closed_windows, 3u);
  // ...and applied bytes can only trail the attempt-based charges, even
  // when an injected swap.write_error eats part of the work.
  EXPECT_GT(qs.total_charged_sz, 0u);
  EXPECT_LE(st.sz_applied, qs.total_charged_sz);
}

// ---------------------------------------------------------------------------
// Prioritization: an insufficient budget is reordered, not spent
// address-first
// ---------------------------------------------------------------------------

struct SpendProfile {
  std::uint64_t hot = 0;    // applied-range bytes inside the hot span
  std::uint64_t total = 0;  // applied-range bytes overall
};

// Runs a 2s monitor-only burn-in (so DAMON can tell the hot span from the
// cold rest), installs `scheme_line`, drives 5 more seconds, and folds the
// kSchemeApply trace events into per-span spend totals.
SpendProfile RunSpend(const std::string& scheme_line, Addr hot_start,
                      Addr hot_end) {
  std::unique_ptr<fault::FaultPlane> faults = fault::FaultPlane::FromEnv();
  sim::Machine machine(sim::MachineSpec{"gov", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  if (faults != nullptr) machine.SetFaultPlane(faults.get());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kBase, kHeap, "heap");
  space.TouchRange(kBase, kBase + kHeap, true, 0);

  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults(),
                          /*seed=*/42);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));
  SchemesEngine engine;
  engine.SetMachine(&machine);
  engine.Attach(ctx);
  telemetry::MetricsRegistry registry;
  telemetry::TraceBuffer trace(1 << 16);
  engine.BindTelemetry(registry, &trace);

  SimTimeUs now = 0;
  for (; now < 2 * kUsPerSec; now += ctx.attrs().sampling_interval) {
    space.TouchRange(hot_start, hot_end, false, now);
    ctx.Step(now, ctx.attrs().sampling_interval);
  }
  EXPECT_TRUE(engine.InstallFromText(scheme_line + "\n"));
  for (; now < 7 * kUsPerSec; now += ctx.attrs().sampling_interval) {
    space.TouchRange(hot_start, hot_end, false, now);
    ctx.Step(now, ctx.attrs().sampling_interval);
  }

  SpendProfile p;
  for (const telemetry::TraceEvent& ev : trace.Events()) {
    if (ev.kind != telemetry::EventKind::kSchemeApply) continue;
    p.total += ev.arg1 - ev.arg0;  // arg0..1 = quota-clipped applied range
    const Addr lo = std::max<Addr>(ev.arg0, hot_start);
    const Addr hi = std::min<Addr>(ev.arg1, hot_end);
    if (hi > lo) p.hot += hi - lo;
  }
  return p;
}

TEST(GovernorPropertyTest, ColdFirstReclaimSparesTheHotHead) {
  // Hot span at the *lowest* addresses: exactly where an address-order
  // walk would spend the constrained budget first.
  const SpendProfile prio = RunSpend(
      "min max min max min max pageout quota_sz=4M quota_reset_ms=1000"
      " prio_weights=0,10,0",
      kBase, kBase + kHot);
  const SpendProfile base = RunSpend(
      "min max min max min max pageout quota_sz=4M quota_reset_ms=1000",
      kBase, kBase + kHot);

  ASSERT_GT(prio.total, 0u);
  ASSERT_GT(base.total, 0u);
  // Ungoverned order reclaims the hot head; frequency-weighted cold-first
  // prioritization redirects the same budget to the cold tail.
  EXPECT_GT(base.hot, 0u);
  EXPECT_LT(prio.hot, base.hot);
  EXPECT_LT(prio.hot * 4, prio.total);  // hot spend is a small minority
}

TEST(GovernorPropertyTest, HotFirstScoringTargetsTheHotTail) {
  // Promote-shaped scoring (non-inverted frequency — shared by willneed /
  // hugepage; the direction itself is unit-tested in test_governor.cpp)
  // demonstrated through `stat`, whose applied bytes are deterministic and
  // residency-independent. Hot span at the *highest* addresses, so
  // address order and hot-first disagree maximally.
  const SpendProfile prio = RunSpend(
      "min max min max min max stat quota_sz=4M quota_reset_ms=1000"
      " prio_weights=0,10,0",
      kBase + kHeap - kHot, kBase + kHeap);
  const SpendProfile base = RunSpend(
      "min max min max min max stat quota_sz=4M quota_reset_ms=1000",
      kBase + kHeap - kHot, kBase + kHeap);

  ASSERT_GT(prio.total, 0u);
  ASSERT_GT(base.total, 0u);
  // Address order never reaches the tail before the window budget runs
  // out; hot-first spends the majority of its budget there.
  EXPECT_GT(prio.hot * 2, prio.total);
  EXPECT_LT(base.hot * 2, base.total);
  EXPECT_GT(prio.hot, base.hot);
}

// ---------------------------------------------------------------------------
// Watermarks: a deactivated scheme tries nothing
// ---------------------------------------------------------------------------

TEST(GovernorPropertyTest, WatermarkDeactivationFreezesNrTried) {
  std::unique_ptr<fault::FaultPlane> faults = fault::FaultPlane::FromEnv();
  sim::Machine machine(sim::MachineSpec{"gov", 4, 3.0, 1 * GiB},
                       sim::SwapConfig::Zram());
  if (faults != nullptr) machine.SetFaultPlane(faults.get());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kBase, kHeap, "heap");
  space.TouchRange(kBase, kBase + kHeap, true, 0);

  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults(),
                          /*seed=*/42);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));
  SchemesEngine engine;
  engine.SetMachine(&machine);
  engine.Attach(ctx);
  ASSERT_TRUE(engine.InstallFromText(
      "min max min min min max pageout"
      " wmarks=free_mem_rate,800,500,100 wmark_interval_ms=100\n"));

  SimTimeUs now = 0;
  auto run_until = [&](SimTimeUs end) {
    for (; now < end; now += ctx.attrs().sampling_interval)
      ctx.Step(now, ctx.attrs().sampling_interval);
  };

  // Phase A — only the 64M heap is resident, free_mem_rate ~937‰ > high:
  // the gate must deactivate on the very first pass and nr_tried stay 0.
  run_until(2 * kUsPerSec);
  const SchemeStats& st = engine.schemes()[0].stats();
  EXPECT_EQ(st.nr_tried, 0u);
  EXPECT_FALSE(st.wmark_active);
  EXPECT_EQ(st.nr_wmark_deactivations, 1u);

  // Phase B — synthetic pressure pushes free below mid (500‰): the gate
  // re-arms and the scheme starts trying regions.
  const std::uint64_t kPressureFrames = 150000;  // ~586M extra used
  machine.ChargeFrames(kPressureFrames);
  run_until(4 * kUsPerSec);
  EXPECT_TRUE(st.wmark_active);
  EXPECT_GT(st.nr_tried, 0u);

  // Phase C — pressure released, free back above high: deactivated again,
  // nr_tried frozen for the rest of the run.
  machine.UnchargeFrames(kPressureFrames);
  const std::uint64_t tried_at_release = st.nr_tried;
  run_until(6 * kUsPerSec);
  EXPECT_EQ(st.nr_tried, tried_at_release);
  EXPECT_FALSE(st.wmark_active);
  EXPECT_GE(st.nr_wmark_deactivations, 2u);
  EXPECT_FALSE(engine.schemes()[0].runtime().wmark.active);
}

// ---------------------------------------------------------------------------
// Disarmed schemes are bit-identical to the pre-governor engine
// ---------------------------------------------------------------------------

TEST(GovernorPropertyTest, DisarmedSchemeMatchesPreGovernorGoldens) {
  if (std::getenv("DAOS_FAULTS") != nullptr)
    GTEST_SKIP() << "golden numbers assume a fault-free run";

  // The exact scenario used to capture the goldens on the pre-governor
  // engine (commit 972e060): 64M heap, 8M re-touched head, Prcl(2s) for
  // 6 simulated seconds. A disarmed policy must take a single branch and
  // change nothing — down to the last byte and page.
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kBase, kHeap, "heap");
  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults(),
                          /*seed=*/42);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));
  SchemesEngine engine;
  engine.Install({Scheme::Prcl(2 * kUsPerSec)});
  engine.Attach(ctx);
  space.TouchRange(kBase, kBase + kHeap, true, 0);
  for (SimTimeUs now = 0; now < 6 * kUsPerSec;
       now += ctx.attrs().sampling_interval) {
    space.TouchRange(kBase, kBase + kHot, false, now);
    ctx.Step(now, ctx.attrs().sampling_interval);
  }

  const SchemeStats& st = engine.schemes()[0].stats();
  EXPECT_EQ(space.swapped_pages(), 14331u);
  EXPECT_EQ(space.resident_pages(), 2053u);
  EXPECT_EQ(st.nr_tried, 1031u);
  EXPECT_EQ(st.sz_tried, 2165346304u);
  EXPECT_EQ(st.nr_applied, 28u);
  EXPECT_EQ(st.sz_applied, 58699776u);
}

}  // namespace
}  // namespace daos::damos
