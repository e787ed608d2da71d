#include "sim/thp.hpp"

#include <gtest/gtest.h>

#include "sim/address_space.hpp"
#include "sim/machine.hpp"

namespace daos::sim {
namespace {

MachineSpec SmallSpec() { return MachineSpec{"test", 4, 3.0, 4 * GiB}; }

TEST(ThpFaultPath, AlwaysModePromotesEmptyFullBlock) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kAlways);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 4 * kHugePageSize, "heap");
  TouchStats touched;
  // One touch in an empty, fully-mapped block allocates the whole block.
  space.TouchPage(kHugePageSize + 5 * kPageSize, false, 0, touched);
  EXPECT_EQ(space.resident_pages(), kPagesPerHuge);
  EXPECT_EQ(space.huge_blocks(), 1u);
  // Every sub-page except the touched one is bloat.
  EXPECT_EQ(space.bloat_pages(), kPagesPerHuge - 1);
}

TEST(ThpFaultPath, NeverModeFaultsSinglePage) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kNever);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 4 * kHugePageSize, "heap");
  TouchStats touched;
  space.TouchPage(kHugePageSize, false, 0, touched);
  EXPECT_EQ(space.resident_pages(), 1u);
  EXPECT_EQ(space.huge_blocks(), 0u);
}

TEST(ThpFaultPath, PartialBlockNotPromotedOnFault) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kAlways);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 4 * kHugePageSize, "heap");
  TouchStats touched;
  // Make the block partially resident first (simulating pre-THP state).
  machine.set_thp_mode(ThpMode::kNever);
  space.TouchPage(0, false, 0, touched);
  machine.set_thp_mode(ThpMode::kAlways);
  space.TouchPage(kPageSize, false, 0, touched);
  EXPECT_EQ(space.resident_pages(), 2u);
  EXPECT_EQ(space.huge_blocks(), 0u);
}

TEST(ThpFaultPath, HugeFaultCostsMoreThanBaseFault) {
  Machine always(SmallSpec(), SwapConfig::Zram(), ThpMode::kAlways);
  AddressSpace huge_space(1, &always, 3.0);
  huge_space.Map(0, 2 * kHugePageSize, "heap");
  TouchStats huge;
  huge_space.TouchPage(0, false, 0, huge);

  Machine never(SmallSpec(), SwapConfig::Zram(), ThpMode::kNever);
  AddressSpace base_space(2, &never, 3.0);
  base_space.Map(0, 2 * kHugePageSize, "heap");
  TouchStats base;
  base_space.TouchPage(0, false, 0, base);
  // The paper's THP latency spikes: huge allocation is much slower.
  EXPECT_GT(huge.stall_us, base.stall_us * 10);
}

TEST(ThpTouch, HugeBackedTouchCountsAsHuge) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kAlways);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 2 * kHugePageSize, "heap");
  TouchStats touched;
  space.TouchPage(0, false, 0, touched);
  TouchStats st;
  space.TouchPage(kPageSize, false, 0, st);
  EXPECT_EQ(st.huge_pages, 1u);
}

TEST(ThpTouch, TouchClearsBloatFlag) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kAlways);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 2 * kHugePageSize, "heap");
  TouchStats touched;
  space.TouchPage(0, false, 0, touched);
  const std::uint64_t before = space.bloat_pages();
  space.TouchPage(17 * kPageSize, false, 0, touched);
  EXPECT_EQ(space.bloat_pages(), before - 1);
}

TEST(ThpDemote, FreesUntouchedBloat) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kAlways);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 2 * kHugePageSize, "heap");
  TouchStats touched;
  space.TouchPage(0, false, 0, touched);
  space.TouchPage(kPageSize, false, 0, touched);
  ASSERT_EQ(space.resident_pages(), kPagesPerHuge);
  const std::uint64_t freed = space.DemoteRange(0, kHugePageSize);
  // All but the two touched pages go back.
  EXPECT_EQ(freed, (kPagesPerHuge - 2) * kPageSize);
  EXPECT_EQ(space.resident_pages(), 2u);
  EXPECT_EQ(space.huge_blocks(), 0u);
  EXPECT_EQ(space.bloat_pages(), 0u);
}

TEST(ThpPromote, PromoteRangeNeedsHalfOverlap) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kNever);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 4 * kHugePageSize, "heap");
  TouchStats touched;
  space.TouchPage(0, false, 0, touched);
  // Range covering only a quarter of block 0: no promotion.
  EXPECT_EQ(space.PromoteRange(0, kHugePageSize / 4, 0), 0u);
  EXPECT_EQ(space.huge_blocks(), 0u);
  // Range covering 1.5 blocks: block 0 promoted, block 1 promoted (covers
  // exactly half).
  space.PromoteRange(0, kHugePageSize + kHugePageSize / 2, 0);
  EXPECT_GE(space.huge_blocks(), 1u);
}

TEST(ThpPromote, PromoteIsIdempotent) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kNever);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 2 * kHugePageSize, "heap");
  TouchStats touched;
  space.TouchPage(0, false, 0, touched);
  const std::uint64_t first = space.PromoteRange(0, kHugePageSize, 0);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(space.PromoteRange(0, kHugePageSize, 0), 0u);
  EXPECT_EQ(space.huge_blocks(), 1u);
}

TEST(ThpPromote, SwappedSubPagesPulledIn) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kNever);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, kHugePageSize, "heap");
  space.TouchRange(0, kHugePageSize, true, 0);
  space.PageOutRange(0, 8 * kPageSize, 0);
  ASSERT_EQ(space.swapped_pages(), 8u);
  space.PromoteRange(0, kHugePageSize, 0);
  EXPECT_EQ(space.swapped_pages(), 0u);
  EXPECT_EQ(space.resident_pages(), kPagesPerHuge);
}

TEST(ThpPageout, PageoutDemotesFirst) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kAlways);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, kHugePageSize, "heap");
  TouchStats touched;
  space.TouchPage(0, true, 0, touched);  // whole block resident + huge
  const std::uint64_t evicted = space.PageOutRange(0, kHugePageSize, 0);
  // The one touched page swaps out; bloat pages were freed by the demote.
  EXPECT_EQ(evicted, kPageSize);
  EXPECT_EQ(space.resident_pages(), 0u);
  EXPECT_EQ(space.swapped_pages(), 1u);
}

TEST(Khugepaged, CollapsesPartialBlocksSlowly) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kAlways);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 32 * kHugePageSize, "heap");
  TouchStats touched;
  // Sparse single-page touches in many distinct blocks while THP is off,
  // so the fault path cannot promote.
  machine.set_thp_mode(ThpMode::kNever);
  for (std::uint64_t b = 0; b < 32; ++b)
    space.TouchPage(b * kHugePageSize, false, 0, touched);
  machine.set_thp_mode(ThpMode::kAlways);
  const std::uint64_t collapsed = RunKhugepagedScan(machine, 8, kUsPerSec);
  EXPECT_EQ(collapsed, 8u);  // budget bound, not all 32
  EXPECT_EQ(space.huge_blocks(), 8u);
}

TEST(Khugepaged, MachineDrivesPeriodically) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kAlways);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 4 * kHugePageSize, "heap");
  TouchStats touched;
  machine.set_thp_mode(ThpMode::kNever);
  space.TouchPage(0, false, 0, touched);
  machine.set_thp_mode(ThpMode::kAlways);
  machine.RunKhugepaged(0);
  EXPECT_GT(machine.counters().khugepaged_collapses, 0u);
  const std::uint64_t after_first = machine.counters().khugepaged_collapses;
  // Immediately re-running does nothing (10 s period).
  machine.RunKhugepaged(kUsPerSec);
  EXPECT_EQ(machine.counters().khugepaged_collapses, after_first);
}

TEST(Khugepaged, NeverModeDoesNothing) {
  Machine machine(SmallSpec(), SwapConfig::Zram(), ThpMode::kNever);
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 4 * kHugePageSize, "heap");
  TouchStats touched;
  space.TouchPage(0, false, 0, touched);
  machine.RunKhugepaged(0);
  EXPECT_EQ(machine.counters().khugepaged_collapses, 0u);
}

}  // namespace
}  // namespace daos::sim
