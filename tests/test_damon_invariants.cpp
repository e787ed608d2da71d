// Property tests on the monitor's structural invariants: whatever the
// workload does, the regions of every target must exactly tile the
// target's address ranges (no gaps, no overlap, sorted), counts must stay
// within bounds, and the whole pipeline must be deterministic.
#include <gtest/gtest.h>

#include <algorithm>

#include "damon/monitor.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace daos::damon {
namespace {

void ExpectRegionsTileRanges(DamonContext& ctx) {
  for (DamonTarget& target : ctx.targets()) {
    const std::vector<AddrRange> ranges = target.primitives->TargetRanges();
    const auto& regions = target.regions;
    ASSERT_FALSE(regions.empty());
    // Sorted, non-overlapping, non-empty.
    for (std::size_t i = 0; i < regions.size(); ++i) {
      ASSERT_LT(regions[i].start, regions[i].end);
      if (i > 0) {
        ASSERT_GE(regions[i].start, regions[i - 1].end);
      }
    }
    // Exact coverage: walking ranges and regions together consumes both.
    std::size_t ri = 0;
    for (const AddrRange& range : ranges) {
      Addr cursor = range.start;
      while (cursor < range.end) {
        ASSERT_LT(ri, regions.size())
            << "range not fully covered at " << cursor;
        ASSERT_EQ(regions[ri].start, cursor);
        cursor = regions[ri].end;
        ++ri;
      }
      ASSERT_EQ(cursor, range.end);
    }
    ASSERT_EQ(ri, regions.size()) << "regions extend beyond target ranges";
  }
}

class MonitorInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(MonitorInvariantTest, RegionsAlwaysTileTargetRanges) {
  const int seed = GetParam();
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 8 * GiB},
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(0x10000000, 256 * MiB, "heap");
  space.Map(0x7f00000000, 32 * MiB, "mmap");

  MonitoringAttrs attrs;
  attrs.max_nr_regions = 120;
  DamonContext ctx(attrs, seed);
  ctx.AddTarget(std::make_unique<VaddrPrimitives>(&space));

  Rng rng(seed * 37 + 5);
  sim::TouchStats touched;
  for (SimTimeUs now = 0; now < 4 * kUsPerSec;
       now += attrs.sampling_interval) {
    // Random workload: range sweeps and point touches (layout is stable,
    // so regions must tile the target ranges after every step).
    switch (rng.NextBounded(8)) {
      case 0: {
        const Addr base = 0x10000000 + rng.NextBounded(192) * MiB;
        space.TouchRange(base, base + 32 * MiB, false, now);
        break;
      }
      case 1:
        space.TouchPage(0x7f00000000 + rng.NextBounded(8192) * kPageSize,
                        true, now, touched);
        break;
      default: {
        const Addr base = 0x10000000 + rng.NextBounded(224) * MiB;
        space.TouchRange(base, base + 4 * MiB, false, now);
        break;
      }
    }
    ctx.Step(now, attrs.sampling_interval);
    ASSERT_LE(ctx.TotalRegions(), attrs.max_nr_regions);
    ExpectRegionsTileRanges(ctx);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorInvariantTest, ::testing::Range(1, 7));

TEST(MonitorInvariantTest2, TilingConvergesAfterLayoutChurn) {
  // Layout changes are picked up within one regions-update interval; the
  // tiling invariant is restored once the update ran (the kernel has the
  // same lag).
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 8 * GiB},
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(0x10000000, 128 * MiB, "heap");
  MonitoringAttrs attrs;
  DamonContext ctx(attrs, 11);
  ctx.AddTarget(std::make_unique<VaddrPrimitives>(&space));
  Rng rng(11);

  SimTimeUs now = 0;
  auto drive = [&](SimTimeUs duration) {
    for (const SimTimeUs end = now + duration; now < end;
         now += attrs.sampling_interval) {
      space.TouchRange(0x10000000, 0x10000000 + 8 * MiB, false, now);
      ctx.Step(now, attrs.sampling_interval);
    }
  };
  drive(2 * kUsPerSec);
  ExpectRegionsTileRanges(ctx);

  for (int round = 0; round < 3; ++round) {
    space.Map(0x40000000 + round * 0x10000000, 16 * MiB, "scratch");
    // One full update interval later the regions must tile again.
    drive(attrs.regions_update_interval + attrs.aggregation_interval);
    ExpectRegionsTileRanges(ctx);
    space.UnmapVma(0x40000000 + round * 0x10000000);
    drive(attrs.regions_update_interval + attrs.aggregation_interval);
    ExpectRegionsTileRanges(ctx);
  }
}

TEST(MonitorDeterminismTest, IdenticalRunsProduceIdenticalRegions) {
  auto run = [] {
    sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                         sim::SwapConfig::Zram());
    sim::AddressSpace space(1, &machine, 3.0);
    space.Map(0x10000000, 128 * MiB, "heap");
    MonitoringAttrs attrs;
    DamonContext ctx(attrs, /*seed=*/99);
    ctx.AddTarget(std::make_unique<VaddrPrimitives>(&space));
    for (SimTimeUs now = 0; now < 2 * kUsPerSec;
         now += attrs.sampling_interval) {
      space.TouchRange(0x10000000, 0x10000000 + 16 * MiB, false, now);
      ctx.Step(now, attrs.sampling_interval);
    }
    std::vector<Region> out = ctx.targets()[0].regions;
    return out;
  };
  const std::vector<Region> a = run();
  const std::vector<Region> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].nr_accesses, b[i].nr_accesses);
    EXPECT_EQ(a[i].age, b[i].age);
  }
}

TEST(MonitorAgingThresholdTest, KernelThresholdAgesThroughSweepBlips) {
  // A periodic sweep registers as 0->1 access blips; under the kernel's
  // threshold-2 rule those blips do not reset ages, so the swept region's
  // age keeps growing — the behaviour the ablation_aging bench
  // quantifies. Under the default any-change rule the same workload keeps
  // the swept region's age low.
  auto max_age_under = [](std::uint32_t reset_threshold) {
    sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                         sim::SwapConfig::Zram());
    sim::AddressSpace space(1, &machine, 3.0);
    space.Map(0x10000000, 64 * MiB, "heap");
    MonitoringAttrs attrs;
    attrs.age_reset_threshold = reset_threshold;
    DamonContext ctx(attrs, 5);
    ctx.AddTarget(std::make_unique<VaddrPrimitives>(&space));

    // Sweep the whole area once per second for 8 s.
    Addr cursor = 0;
    const std::uint64_t pages = 64 * MiB / kPageSize;
    const std::uint64_t per_quantum =
        pages * attrs.sampling_interval / kUsPerSec;
    for (SimTimeUs now = 0; now < 8 * kUsPerSec;
         now += attrs.sampling_interval) {
      const Addr start = 0x10000000 + cursor * kPageSize;
      space.TouchRange(start, start + per_quantum * kPageSize, false, now);
      cursor = (cursor + per_quantum) % pages;
      ctx.Step(now, attrs.sampling_interval);
    }
    std::uint32_t max_age = 0;
    for (const Region& r : ctx.targets()[0].regions)
      max_age = std::max(max_age, r.age);
    return max_age;
  };
  const std::uint32_t kernel_rule = max_age_under(2);
  const std::uint32_t any_change_rule = max_age_under(0);
  EXPECT_GT(kernel_rule, any_change_rule);
  EXPECT_LT(any_change_rule, 30u);  // ages reset within ~3 s of sweeping
}

TEST(MonitorAgingThresholdTest, AnyChangeRuleResetsOnBlip) {
  // End-to-end: a region whose sampled accesses blip 0 -> 1 must reset its
  // age under the default rule.
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(0x10000000, 64 * MiB, "heap");
  MonitoringAttrs attrs;  // age_reset_threshold = 0
  DamonContext ctx(attrs, 7);
  ctx.AddTarget(std::make_unique<VaddrPrimitives>(&space));

  // Idle for 2 s: ages grow.
  SimTimeUs now = 0;
  for (; now < 2 * kUsPerSec; now += attrs.sampling_interval)
    ctx.Step(now, attrs.sampling_interval);
  std::uint32_t max_age = 0;
  for (const Region& r : ctx.targets()[0].regions)
    max_age = std::max(max_age, r.age);
  ASSERT_GE(max_age, 10u);

  // One aggregation window of full touching: every region blips, so on
  // the *next* aggregation boundary all ages must have reset recently.
  for (SimTimeUs end = now + attrs.aggregation_interval + attrs.sampling_interval;
       now < end; now += attrs.sampling_interval) {
    space.TouchRange(0x10000000, 0x10000000 + 64 * MiB, false, now);
    ctx.Step(now, attrs.sampling_interval);
  }
  std::uint32_t max_age_after = 0;
  for (const Region& r : ctx.targets()[0].regions)
    max_age_after = std::max(max_age_after, r.age);
  EXPECT_LT(max_age_after, 5u);
}

}  // namespace
}  // namespace daos::damon
