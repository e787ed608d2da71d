#include "damon/primitives.hpp"

#include <gtest/gtest.h>

#include "sim/address_space.hpp"
#include "sim/machine.hpp"

namespace daos::damon {
namespace {

sim::MachineSpec Spec() { return sim::MachineSpec{"t", 4, 3.0, 4 * GiB}; }

TEST(VaddrPrimitivesTest, ThreeRegionsExcludeBigGaps) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  // heap ... huge gap ... mmap ... huge gap ... stack (a realistic layout).
  space.Map(0x10000000, 64 * MiB, "heap");
  space.Map(0x7f0000000000, 16 * MiB, "mmap");
  space.Map(0x7ffff0000000, 8 * MiB, "stack");

  VaddrPrimitives prim(&space);
  const auto ranges = prim.TargetRanges();
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].start, 0x10000000u);
  EXPECT_EQ(ranges[0].end, 0x10000000u + 64 * MiB);
  EXPECT_EQ(ranges[1].start, 0x7f0000000000u);
  EXPECT_EQ(ranges[2].end, 0x7ffff0000000u + 8 * MiB);
}

TEST(VaddrPrimitivesTest, SmallGapsAreSpanned) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  // Four VMAs: three closely spaced + one far away. Only the two biggest
  // gaps separate ranges, so the close ones stay in one span.
  space.Map(0x10000000, 4 * MiB, "a");
  space.Map(0x10000000 + 5 * MiB, 4 * MiB, "b");
  space.Map(0x10000000 + 10 * MiB, 4 * MiB, "c");
  space.Map(0x7f0000000000, 4 * MiB, "far");

  VaddrPrimitives prim(&space);
  const auto ranges = prim.TargetRanges();
  // Two cut points -> at most 3 ranges; the far VMA must be separate.
  ASSERT_LE(ranges.size(), 3u);
  EXPECT_EQ(ranges.back().start, 0x7f0000000000u);
}

TEST(VaddrPrimitivesTest, EmptySpace) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  VaddrPrimitives prim(&space);
  EXPECT_TRUE(prim.TargetRanges().empty());
}

TEST(VaddrPrimitivesTest, MkOldIsYoungRoundTrip) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(0x10000000, 4 * MiB, "heap");
  space.TouchPage(0x10000000, false, 0);
  VaddrPrimitives prim(&space);
  EXPECT_TRUE(prim.IsYoung(0x10000000));
  prim.MkOld(0x10000000, 1000);
  EXPECT_FALSE(prim.IsYoung(0x10000000));
}

TEST(VaddrPrimitivesTest, LayoutGenerationTracksMaps) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  VaddrPrimitives prim(&space);
  const auto g0 = prim.LayoutGeneration();
  space.Map(0x10000000, MiB, "heap");
  EXPECT_NE(prim.LayoutGeneration(), g0);
}

TEST(VaddrPrimitivesTest, ApplyActionDispatch) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(0x10000000, 16 * kPageSize, "heap");
  space.TouchRange(0x10000000, 0x10000000 + 16 * kPageSize, true, 0);
  VaddrPrimitives prim(&space);

  EXPECT_EQ(prim.ApplyAction(DamosAction::kStat, 0x10000000,
                             0x10000000 + 16 * kPageSize, 0),
            16 * kPageSize);
  EXPECT_EQ(prim.ApplyAction(DamosAction::kCold, 0x10000000,
                             0x10000000 + 16 * kPageSize, 0),
            16 * kPageSize);
  EXPECT_EQ(prim.ApplyAction(DamosAction::kPageout, 0x10000000,
                             0x10000000 + 16 * kPageSize, 0),
            16 * kPageSize);
  EXPECT_EQ(space.resident_pages(), 0u);
  EXPECT_EQ(prim.ApplyAction(DamosAction::kWillneed, 0x10000000,
                             0x10000000 + 16 * kPageSize, 0),
            16 * kPageSize);
  EXPECT_EQ(space.resident_pages(), 16u);
}

TEST(DamosActionNameTest, AllNamed) {
  EXPECT_EQ(DamosActionName(DamosAction::kPageout), "pageout");
  EXPECT_EQ(DamosActionName(DamosAction::kHugepage), "hugepage");
  EXPECT_EQ(DamosActionName(DamosAction::kNohugepage), "nohugepage");
  EXPECT_EQ(DamosActionName(DamosAction::kWillneed), "willneed");
  EXPECT_EQ(DamosActionName(DamosAction::kCold), "cold");
  EXPECT_EQ(DamosActionName(DamosAction::kStat), "stat");
}

class PaddrPrimitivesTest : public ::testing::Test {
 protected:
  PaddrPrimitivesTest() : machine_(Spec(), sim::SwapConfig::Zram()) {}
  sim::Machine machine_;
};

TEST_F(PaddrPrimitivesTest, PhysicalSpaceConcatenatesAllSpaces) {
  sim::AddressSpace a(1, &machine_, 3.0);
  sim::AddressSpace b(2, &machine_, 3.0);
  a.Map(0x10000000, 8 * MiB, "a-heap");
  b.Map(0x20000000, 8 * MiB, "b-heap");
  PaddrPrimitives prim(&machine_);
  const auto ranges = prim.TargetRanges();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].start, 0u);
  EXPECT_EQ(ranges[0].end, 16 * MiB);
}

TEST_F(PaddrPrimitivesTest, RmapTranslationRoundTrip) {
  sim::AddressSpace a(1, &machine_, 3.0);
  sim::AddressSpace b(2, &machine_, 3.0);
  a.Map(0x10000000, 8 * MiB, "a-heap");
  b.Map(0x20000000, 8 * MiB, "b-heap");
  // Touch only a page in the second space; its physical address is offset
  // by the first space's size.
  b.TouchPage(0x20000000 + 5 * kPageSize, false, 0);
  PaddrPrimitives prim(&machine_);
  const Addr phys = 8 * MiB + 5 * kPageSize;
  EXPECT_TRUE(prim.IsYoung(phys));
  prim.MkOld(phys, 1000);
  EXPECT_FALSE(prim.IsYoung(phys));
  EXPECT_FALSE(b.IsYoung(0x20000000 + 5 * kPageSize));
}

TEST_F(PaddrPrimitivesTest, LayoutGenerationChangesOnAnySpace) {
  sim::AddressSpace a(1, &machine_, 3.0);
  a.Map(0x10000000, MiB, "heap");
  PaddrPrimitives prim(&machine_);
  const auto g0 = prim.LayoutGeneration();
  sim::AddressSpace b(2, &machine_, 3.0);
  b.Map(0x20000000, MiB, "heap");
  EXPECT_NE(prim.LayoutGeneration(), g0);
}

TEST_F(PaddrPrimitivesTest, TranslationFollowsEveryLayoutChange) {
  sim::AddressSpace a(1, &machine_, 3.0);
  a.Map(0x10000000, MiB, "heap");
  PaddrPrimitives prim(&machine_);
  EXPECT_EQ(prim.TargetRanges()[0].end, MiB);
  a.Map(0x30000000, MiB, "more");  // Map in a space the table already has
  EXPECT_EQ(prim.TargetRanges()[0].end, 2 * MiB);
  {
    // A new space's mapping sits after a's, and its touch is seen there.
    sim::AddressSpace b(2, &machine_, 3.0);
    b.Map(0x20000000, MiB, "heap");
    b.TouchPage(0x20000000, false, 0);
    EXPECT_EQ(prim.TargetRanges()[0].end, 3 * MiB);
    EXPECT_TRUE(prim.IsYoung(2 * MiB));
  }
  // Unregistering b drops its extent; unmapping shrinks a's.
  EXPECT_FALSE(prim.IsYoung(2 * MiB));
  EXPECT_EQ(prim.TargetRanges()[0].end, 2 * MiB);
  a.UnmapVma(0x30000000);
  EXPECT_EQ(prim.TargetRanges()[0].end, MiB);
}

TEST_F(PaddrPrimitivesTest, ActionSpansSpaces) {
  sim::AddressSpace a(1, &machine_, 3.0);
  sim::AddressSpace b(2, &machine_, 3.0);
  a.Map(0x10000000, 4 * kPageSize, "a-heap");
  b.Map(0x20000000, 4 * kPageSize, "b-heap");
  a.TouchRange(0x10000000, 0x10000000 + 4 * kPageSize, true, 0);
  b.TouchRange(0x20000000, 0x20000000 + 4 * kPageSize, true, 0);
  PaddrPrimitives prim(&machine_);
  // Page out the whole "physical" range: both spaces drained.
  const std::uint64_t evicted =
      prim.ApplyAction(DamosAction::kPageout, 0, 8 * kPageSize, 0);
  EXPECT_EQ(evicted, 8 * kPageSize);
  EXPECT_EQ(a.resident_pages(), 0u);
  EXPECT_EQ(b.resident_pages(), 0u);
}

TEST_F(PaddrPrimitivesTest, OutOfRangeIsQuietlyIgnored) {
  sim::AddressSpace a(1, &machine_, 3.0);
  a.Map(0x10000000, kPageSize, "heap");
  PaddrPrimitives prim(&machine_);
  EXPECT_FALSE(prim.IsYoung(1 * GiB));
  prim.MkOld(1 * GiB, 0);  // must not crash
}

TEST_F(PaddrPrimitivesTest, PaddrChecksCostMoreThanVaddr) {
  sim::AddressSpace a(1, &machine_, 3.0);
  VaddrPrimitives va(&a, machine_.costs().monitor_check_us);
  PaddrPrimitives pa(&machine_, machine_.costs().monitor_check_paddr_us);
  EXPECT_GT(pa.CheckCostUs(), va.CheckCostUs());
}

}  // namespace
}  // namespace daos::damon
