// Golden for the simulator's page walks (labelled "tier;sim").
//
// Two fixed-seed runs drive every range action and CLOCK sweep of src/sim
// and pin what they leave behind: machine counters, the swap device's
// state, resident/swapped/bloat pages and every scheme's stats. The
// numbers were recorded before the walks were shared, so any change in
// visit order, budget charge or floating-point accumulation order shows.
//
//   - Untiered, under memory pressure, THP `always`: one scheme per Table 1
//     action, so kswapd's reclaimer, PageOutRange, SwapInRange,
//     DeactivateRange, PromoteRange and DemoteRange all run; a VMA is
//     unmapped mid-run and the space is torn down at the end (the frame
//     and swap-slot release paths).
//   - dram+cxl+file with the `lru` balancer and migrate_hot/migrate_cold:
//     TierDemoteScan on tier 0 and on the middle tier, MigrateRange and the
//     tiered kswapd all run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "damon/monitor.hpp"
#include "damon/primitives.hpp"
#include "damos/engine.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "sim/tier.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace daos {
namespace {

constexpr Addr kBase = 0x10000000;

struct Layout {
  Addr a = 0;  // hot head, cold tail; unmapped mid-run
  std::uint64_t a_len = 0;
  Addr b = 0;  // sliding window
  std::uint64_t b_len = 0;
  Addr c = 0;  // written in bursts
  std::uint64_t c_len = 0;
};

std::string Summary(const sim::Machine& machine, const sim::AddressSpace& space,
                    const damos::SchemesEngine& engine) {
  std::string out;
  const sim::MachineCounters& mc = machine.counters();
  AppendF(out,
          "machine reclaimed=%llu scans=%llu failed=%llu collapses=%llu "
          "overcommit=%llu used_frames=%llu\n",
          static_cast<unsigned long long>(mc.reclaimed_pages),
          static_cast<unsigned long long>(mc.reclaim_scans),
          static_cast<unsigned long long>(mc.failed_evictions),
          static_cast<unsigned long long>(mc.khugepaged_collapses),
          static_cast<unsigned long long>(mc.overcommit_events),
          static_cast<unsigned long long>(machine.used_frames()));
  AppendF(out,
          "tier promoted=%llu demoted=%llu blocked=%llu touches=%llu "
          "slow=%llu\n",
          static_cast<unsigned long long>(mc.tier_promoted_pages),
          static_cast<unsigned long long>(mc.tier_demoted_pages),
          static_cast<unsigned long long>(mc.tier_promote_blocked),
          static_cast<unsigned long long>(mc.tier_touches),
          static_cast<unsigned long long>(mc.tier_slow_touches));
  for (std::size_t t = 0; t < machine.tier_geometry().size(); ++t) {
    AppendF(out, "tier%zu used=%llu\n", t,
            static_cast<unsigned long long>(
                machine.TierUsedPages(static_cast<std::uint16_t>(t))));
  }
  const sim::SwapDevice& swap = machine.swap();
  AppendF(out, "swap slots=%llu bytes=%llu ins=%llu outs=%llu\n",
          static_cast<unsigned long long>(swap.used_slots()),
          static_cast<unsigned long long>(swap.stored_bytes()),
          static_cast<unsigned long long>(swap.total_ins()),
          static_cast<unsigned long long>(swap.total_outs()));
  AppendF(out,
          "space resident=%llu swapped=%llu bloat=%llu huge=%llu major=%llu "
          "minor=%llu dirty_ev=%llu clean_ev=%llu\n",
          static_cast<unsigned long long>(space.resident_pages()),
          static_cast<unsigned long long>(space.swapped_pages()),
          static_cast<unsigned long long>(space.bloat_pages()),
          static_cast<unsigned long long>(space.huge_blocks()),
          static_cast<unsigned long long>(space.major_faults()),
          static_cast<unsigned long long>(space.minor_faults()),
          static_cast<unsigned long long>(space.dirty_evictions()),
          static_cast<unsigned long long>(space.clean_evictions()));
  for (std::size_t i = 0; i < engine.schemes().size(); ++i) {
    const damos::SchemeStats& st = engine.schemes()[i].stats();
    AppendF(out, "scheme%zu tried=%llu/%llu applied=%llu/%llu\n", i,
            static_cast<unsigned long long>(st.nr_tried),
            static_cast<unsigned long long>(st.sz_tried),
            static_cast<unsigned long long>(st.nr_applied),
            static_cast<unsigned long long>(st.sz_applied));
  }
  return out;
}

/// Drives `space` for `seconds` of simulated time: a hot head of A every
/// sampling interval, a window sliding over B, bursts of writes into C,
/// seeded single-page touches over everything, and the kernel daemons in
/// System::Step's order. A is unmapped halfway, swapped tail and all, and
/// a fresh VMA takes its place. Returns the summary before and after the space is torn down.
std::string Drive(sim::Machine& machine, std::unique_ptr<sim::AddressSpace> space,
                  const Layout& l, const char* schemes, SimTimeUs seconds) {
  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults(),
                          /*seed=*/20220627);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(space.get()));
  damos::SchemesEngine engine;
  engine.SetMachine(&machine);
  engine.Attach(ctx);
  EXPECT_TRUE(engine.InstallFromText(schemes));
  Rng rng(0x9a6e'3a1c'5eedULL);
  sim::TouchStats st;

  space->Map(l.a, l.a_len, "a");
  space->Map(l.b, l.b_len, "b");
  space->Map(l.c, l.c_len, "c");
  space->TouchRange(l.a, l.a + l.a_len, true, 0);
  space->TouchRange(l.b, l.b + l.b_len, false, 0);
  space->TouchRange(l.c, l.c + l.c_len / 2, true, 0);
  const SimTimeUs step = ctx.attrs().sampling_interval;
  const SimTimeUs end = seconds * kUsPerSec;
  SimTimeUs next_gc = 0;
  for (SimTimeUs now = step; now < end; now += step) {
    space->TouchRange(l.a, l.a + l.a_len / 6, (now / step) % 4 == 0, now);
    const Addr w = l.b + ((now / (20 * step)) * 512 * KiB) % l.b_len;
    space->TouchRange(w, std::min(w + 3 * MiB, l.b + l.b_len), false, now);
    if (now % (2 * kUsPerSec) < 100 * kUsPerMs) {
      space->TouchRange(l.c, l.c + l.c_len / 2, true, now);
    }
    for (int k = 0; k < 4; ++k) {
      const Addr off = rng.NextBounded(l.a_len + l.b_len + l.c_len);
      const Addr addr = off < l.a_len ? l.a + off
                        : off < l.a_len + l.b_len ? l.b + off - l.a_len
                                                  : l.c + off - l.a_len - l.b_len;
      space->TouchPage(addr, k == 0, now, st);
    }
    if (now == end / 2) {
      space->UnmapVma(l.a);
      space->Map(l.a, l.a_len, "a2");
    }
    ctx.Step(now, step);
    machine.RunKhugepaged(now);
    machine.RunTierBalancerIfNeeded(now);
    machine.RunReclaimIfNeeded(now);
    if (now >= next_gc) {
      next_gc = now + kUsPerSec;
      space->MaintainLogs(now);
    }
  }
  std::string out = Summary(machine, *space, engine);
  space.reset();
  const sim::SwapDevice& swap = machine.swap();
  AppendF(out, "teardown used_frames=%llu slots=%llu bytes=%llu\n",
          static_cast<unsigned long long>(machine.used_frames()),
          static_cast<unsigned long long>(swap.used_slots()),
          static_cast<unsigned long long>(swap.stored_bytes()));
  return out;
}

TEST(PageWalkGoldenTest, UntieredPressureRunsEveryRangeAction) {
  if (std::getenv("DAOS_FAULTS") != nullptr)
    GTEST_SKIP() << "golden numbers assume a fault-free run";
  sim::Machine machine(sim::MachineSpec{"walk", 4, 3.0, 40 * MiB},
                       sim::SwapConfig::Zram(), sim::ThpMode::kAlways);
  // Unaligned starts leave partial 2 MiB blocks and partial bitmap words
  // at the VMA edges.
  const Layout l{kBase, 24 * MiB, kBase + 40 * MiB + 12 * KiB,
                 12 * MiB + 20 * KiB, kBase + 64 * MiB + 2 * MiB, 10 * MiB};
  const std::string got =
      Drive(machine, std::make_unique<sim::AddressSpace>(1, &machine, 3.0), l,
            "min max min min 2s max pageout\n"
            "min max 3 max min max willneed\n"
            "min max min min 1s max cold\n"
            "min max 2 max 200ms max hugepage\n"
            "min max min 2 3s max nohugepage\n"
            "min max min max min max stat\n"
            "min max 1 max min max migrate_hot\n"
            "min max min min 1s max migrate_cold\n",
            10);
  EXPECT_EQ(got,
            "machine reclaimed=3878 scans=671 failed=0 collapses=0 "
            "overcommit=480 used_frames=8726\n"
            "tier promoted=0 demoted=0 blocked=0 touches=0 slow=0\n"
            "swap slots=1099 bytes=1500501 ins=4395 outs=45226\n"
            "space resident=8726 swapped=1099 bloat=2316 huge=16 major=3276 "
            "minor=1457 dirty_ev=7050 clean_ev=38176\n"
            "scheme0 tried=1409/1775595520 applied=1121/169361408\n"
            "scheme1 tried=823/796954624 applied=23/4583424\n"
            "scheme2 tried=1880/2416152576 applied=112/20242432\n"
            "scheme3 tried=194/282800128 applied=2/2097152\n"
            "scheme4 tried=991/1272434688 applied=2/5410816\n"
            "scheme5 tried=4138/4777242624 applied=4138/4777242624\n"
            "scheme6 tried=923/916647936 applied=0/0\n"
            "scheme7 tried=1880/2416152576 applied=0/0\n"
            "teardown used_frames=0 slots=0 bytes=0\n");
}

TEST(PageWalkGoldenTest, TieredRunsBalancerCascadeAndMigration) {
  if (std::getenv("DAOS_FAULTS") != nullptr)
    GTEST_SKIP() << "golden numbers assume a fault-free run";
  sim::Machine machine(sim::MachineSpec{"walk", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  sim::TierGeometry geo;
  std::string error;
  ASSERT_TRUE(sim::ParseTierGeometry(
      "dram 8M\ncxl 8M lat=0.6 bw=8G\nfile 28M lat=2.0 bw=1G\n", &geo,
      &error))
      << error;
  ASSERT_TRUE(machine.SetTierGeometry(geo, &error)) << error;
  machine.set_tier_policy(sim::TierPolicy::kLruDemote);
  const Layout l{kBase, 24 * MiB, kBase + 40 * MiB + 12 * KiB,
                 12 * MiB + 20 * KiB, kBase + 64 * MiB + 2 * MiB, 10 * MiB};
  const std::string got =
      Drive(machine, std::make_unique<sim::AddressSpace>(1, &machine, 3.0), l,
            "min max 2 max min max migrate_hot quota_sz=8M "
            "quota_reset_ms=500\n"
            "min max min min 1s max migrate_cold quota_sz=8M "
            "quota_reset_ms=500\n",
            10);
  EXPECT_EQ(got,
            "machine reclaimed=1055 scans=6 failed=0 collapses=0 "
            "overcommit=3 used_frames=7509\n"
            "tier promoted=4831 demoted=11154 blocked=97 touches=3518385 "
            "slow=1402648\n"
            "tier0 used=1874\n"
            "tier1 used=1813\n"
            "tier2 used=3822\n"
            "swap slots=0 bytes=0 ins=224 outs=1055\n"
            "space resident=7509 swapped=0 bloat=0 huge=0 major=224 "
            "minor=13653 dirty_ev=1055 clean_ev=0\n"
            "scheme0 tried=192/167772160 applied=39/19787776\n"
            "scheme1 tried=94/150994944 applied=59/2838528\n"
            "teardown used_frames=0 slots=0 bytes=0\n");
}

}  // namespace
}  // namespace daos
