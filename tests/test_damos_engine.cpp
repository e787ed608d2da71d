#include "damos/engine.hpp"

#include <gtest/gtest.h>

#include "damon/monitor.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"

namespace daos::damos {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : machine_(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                 sim::SwapConfig::Zram()),
        space_(1, &machine_, 3.0),
        ctx_(damon::MonitoringAttrs::PaperDefaults()) {
    space_.Map(kBase, 64 * MiB, "heap");
    ctx_.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space_));
  }

  /// Drives monitor + engine; `hot_mib` MiB at the head stay hot.
  void Drive(SimTimeUs from, SimTimeUs until, std::uint64_t hot_mib) {
    for (SimTimeUs now = from; now < until;
         now += ctx_.attrs().sampling_interval) {
      if (hot_mib > 0)
        space_.TouchRange(kBase, kBase + hot_mib * MiB, false, now);
      ctx_.Step(now, ctx_.attrs().sampling_interval);
    }
  }

  static constexpr Addr kBase = 0x10000000;
  sim::Machine machine_;
  sim::AddressSpace space_;
  damon::DamonContext ctx_;
  SchemesEngine engine_;
};

TEST_F(EngineTest, PrclPagesOutIdleMemory) {
  engine_.Install({Scheme::Prcl(2 * kUsPerSec)});
  engine_.Attach(ctx_);
  // Populate everything, then keep only 8 MiB hot for 6 s.
  space_.TouchRange(kBase, kBase + 64 * MiB, true, 0);
  Drive(0, 6 * kUsPerSec, 8);

  // Cold tail must have been paged out; hot head must have survived.
  EXPECT_GT(space_.swapped_pages(), (40 * MiB) / kPageSize);
  EXPECT_TRUE(space_.IsResident(kBase));
  const SchemeStats& stats = engine_.schemes()[0].stats();
  EXPECT_GT(stats.nr_applied, 0u);
  EXPECT_GT(stats.sz_applied, 40 * MiB);
}

TEST_F(EngineTest, PrclLeavesEverythingWhenAllHot) {
  engine_.Install({Scheme::Prcl(2 * kUsPerSec)});
  engine_.Attach(ctx_);
  space_.TouchRange(kBase, kBase + 64 * MiB, true, 0);
  Drive(0, 6 * kUsPerSec, 64);
  EXPECT_EQ(space_.swapped_pages(), 0u);
}

TEST_F(EngineTest, StatCountsWithoutSideEffects) {
  engine_.Install({Scheme::WssStat()});
  engine_.Attach(ctx_);
  space_.TouchRange(kBase, kBase + 64 * MiB, true, 0);
  Drive(0, 2 * kUsPerSec, 8);
  const SchemeStats& stats = engine_.schemes()[0].stats();
  EXPECT_GT(stats.nr_tried, 0u);
  EXPECT_GT(stats.sz_applied, 0u);
  EXPECT_EQ(space_.swapped_pages(), 0u);  // STAT never mutates
  EXPECT_EQ(space_.resident_pages(), (64 * MiB) / kPageSize);
}

TEST_F(EngineTest, HugepageSchemePromotesHotRegions) {
  engine_.Install({Scheme::EthpHugepage(5.0)});
  engine_.Attach(ctx_);
  space_.TouchRange(kBase, kBase + 64 * MiB, true, 0);
  Drive(0, 3 * kUsPerSec, 16);
  EXPECT_GT(space_.huge_blocks(), 0u);
}

TEST_F(EngineTest, InstallFromTextReplacesSchemes) {
  ASSERT_TRUE(engine_.InstallFromText("min max min min 2m max pageout\n"));
  ASSERT_EQ(engine_.schemes().size(), 1u);
  ASSERT_TRUE(engine_.InstallFromText(
      "min max 5 max min max hugepage\n"
      "2M max min min 7s max nohugepage\n"));
  EXPECT_EQ(engine_.schemes().size(), 2u);
}

TEST_F(EngineTest, InstallFromTextRejectsBadInputAtomically) {
  ASSERT_TRUE(engine_.InstallFromText("min max min min 2m max pageout\n"));
  std::vector<std::string> errors;
  EXPECT_FALSE(engine_.InstallFromText("garbage\n", &errors));
  EXPECT_FALSE(errors.empty());
  // Old schemes stay installed.
  EXPECT_EQ(engine_.schemes().size(), 1u);
  EXPECT_EQ(engine_.schemes()[0].action(), damon::DamosAction::kPageout);
}

TEST_F(EngineTest, StatsTextMentionsEveryScheme) {
  engine_.Install({Scheme::Prcl(), Scheme::WssStat()});
  const std::string text = engine_.StatsText();
  EXPECT_NE(text.find("pageout"), std::string::npos);
  EXPECT_NE(text.find("stat"), std::string::npos);
}

TEST_F(EngineTest, MultipleSchemesApplyInOrder) {
  // WILLNEED on everything idle brings pages back that PAGEOUT evicted —
  // ordering matters and both should record applications.
  engine_.Install({Scheme::Prcl(kUsPerSec)});
  engine_.Attach(ctx_);
  space_.TouchRange(kBase, kBase + 64 * MiB, true, 0);
  Drive(0, 4 * kUsPerSec, 4);
  const std::uint64_t swapped = space_.swapped_pages();
  ASSERT_GT(swapped, 0u);

  // Now install WILLNEED for everything and keep driving: memory returns.
  SchemeBounds b;
  b.action = damon::DamosAction::kWillneed;
  engine_.Install({Scheme(b)});
  Drive(4 * kUsPerSec, 6 * kUsPerSec, 4);
  EXPECT_EQ(space_.swapped_pages(), 0u);
}

TEST_F(EngineTest, NoSchemesNoEffect) {
  engine_.Attach(ctx_);
  space_.TouchRange(kBase, kBase + 64 * MiB, true, 0);
  Drive(0, 2 * kUsPerSec, 4);
  EXPECT_EQ(space_.swapped_pages(), 0u);
}

TEST(EnginePaddrTest, SchemesApplyAcrossAllProcesses) {
  // The prec configuration: one physical-address target covers every
  // registered address space; a PAGEOUT scheme reclaims idle memory from
  // all of them at once.
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  sim::AddressSpace a(1, &machine, 3.0);
  sim::AddressSpace b(2, &machine, 3.0);
  a.Map(0x10000000, 32 * MiB, "a-heap");
  b.Map(0x20000000, 32 * MiB, "b-heap");
  a.TouchRange(0x10000000, 0x10000000 + 32 * MiB, true, 0);
  b.TouchRange(0x20000000, 0x20000000 + 32 * MiB, true, 0);

  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults());
  ctx.AddTarget(std::make_unique<damon::PaddrPrimitives>(&machine));
  SchemesEngine engine({Scheme::Prcl(kUsPerSec)});
  engine.Attach(ctx);

  // Keep only the first space's head hot.
  for (SimTimeUs now = 0; now < 4 * kUsPerSec;
       now += ctx.attrs().sampling_interval) {
    a.TouchRange(0x10000000, 0x10000000 + 4 * MiB, false, now);
    ctx.Step(now, ctx.attrs().sampling_interval);
  }
  EXPECT_TRUE(a.IsResident(0x10000000));
  EXPECT_GT(a.swapped_pages(), 0u);
  EXPECT_GT(b.swapped_pages(), (16 * MiB) / kPageSize);
}

TEST(EngineColdTest, ColdFeedsTheBaselineReclaimer) {
  // COLD does not evict by itself; it marks regions so the kernel
  // reclaimer takes them first under pressure.
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(0x10000000, 32 * MiB, "heap");
  space.TouchRange(0x10000000, 0x10000000 + 32 * MiB, true, 0);

  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults());
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));
  SchemeBounds cold;
  cold.max_freq = FreqBound::MinValue();
  cold.min_age = kUsPerSec;
  cold.action = damon::DamosAction::kCold;
  SchemesEngine engine({Scheme(cold)});
  engine.Attach(ctx);

  for (SimTimeUs now = 0; now < 3 * kUsPerSec;
       now += ctx.attrs().sampling_interval) {
    ctx.Step(now, ctx.attrs().sampling_interval);
  }
  // Nothing evicted yet...
  EXPECT_EQ(space.swapped_pages(), 0u);
  // ...but plenty of pages are queued for first-pass reclaim.
  std::uint64_t deactivated = 0;
  for (const sim::Vma& vma : space.vmas()) {
    for (std::size_t i = 0; i < vma.page_count(); ++i) {
      if (vma.PageAt(vma.AddrOfIndex(i)).Deactivated()) ++deactivated;
    }
  }
  EXPECT_GT(deactivated, (16 * MiB) / kPageSize);
}

}  // namespace
}  // namespace daos::damos
