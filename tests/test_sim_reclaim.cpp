#include "sim/reclaim.hpp"

#include <gtest/gtest.h>

#include "sim/address_space.hpp"
#include "sim/machine.hpp"

namespace daos::sim {
namespace {

MachineSpec TinySpec(std::uint64_t dram) {
  return MachineSpec{"tiny", 2, 3.0, dram};
}

TEST(Reclaimer, EvictsUntouchedPagesAfterTwoPasses) {
  Machine machine(TinySpec(GiB), SwapConfig::Zram(64 * MiB));
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 64 * kPageSize, "a");
  space.TouchRange(0, 64 * kPageSize, false, 0);
  space.MaintainLogs(20 * kUsPerSec);  // age the touch log out

  Reclaimer reclaimer(&machine);
  // First pass clears accessed state (second chance), second pass puts
  // pages on probation, third evicts.
  std::uint64_t got = 0;
  for (int pass = 0; pass < 3 && got < 16; ++pass) {
    got += reclaimer.Reclaim(16, 1024, -1, 30 * kUsPerSec);
  }
  EXPECT_EQ(got, 16u);
  EXPECT_EQ(space.swapped_pages(), 16u);
}

TEST(Reclaimer, RespectsScanBudget) {
  Machine machine(TinySpec(GiB), SwapConfig::Zram(64 * MiB));
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 1024 * kPageSize, "a");
  space.TouchRange(0, 1024 * kPageSize, false, 0);
  space.MaintainLogs(20 * kUsPerSec);

  Reclaimer reclaimer(&machine);
  // A budget of 10 can never evict more than 10 pages.
  const std::uint64_t got = reclaimer.Reclaim(1000, 10, -1, 30 * kUsPerSec);
  EXPECT_LE(got, 10u);
}

TEST(Reclaimer, DeactivatedPagesGoFirst) {
  Machine machine(TinySpec(GiB), SwapConfig::Zram(64 * MiB));
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 32 * kPageSize, "a");
  space.TouchRange(0, 32 * kPageSize, false, 0);
  // Only the first 8 pages are COLD-deactivated; they are evicted on the
  // very first pass, before anything else.
  space.DeactivateRange(0, 8 * kPageSize);
  Reclaimer reclaimer(&machine);
  const std::uint64_t got = reclaimer.Reclaim(8, 8, -1, kUsPerSec);
  EXPECT_EQ(got, 8u);
  EXPECT_FALSE(space.IsResident(0));
  EXPECT_TRUE(space.IsResident(16 * kPageSize));
}

TEST(Reclaimer, RecentlyTouchedPagesSurvive) {
  Machine machine(TinySpec(GiB), SwapConfig::Zram(64 * MiB));
  AddressSpace space(1, &machine, 3.0);
  space.Map(0, 16 * kPageSize, "a");
  space.TouchRange(0, 16 * kPageSize, false, 0);
  Reclaimer reclaimer(&machine);
  // Touch log is fresh: every page looks young, nothing is evicted on the
  // first pass (budget == page count, so exactly one pass).
  const std::uint64_t got = reclaimer.Reclaim(16, 16, -1, kUsPerMs);
  EXPECT_EQ(got, 0u);
  EXPECT_EQ(space.resident_pages(), 16u);
}

TEST(Reclaimer, SecondChanceRecordsTheClearTime) {
  Machine machine(TinySpec(GiB), SwapConfig::Zram(64 * MiB));
  AddressSpace space(1, &machine, 3.0);
  const Vma* vma = space.Map(0, 16 * kPageSize, "a");
  space.TouchRange(0, 16 * kPageSize, false, 0);
  Reclaimer reclaimer(&machine);
  // Every page is young, so the one pass clears each page's accessed state
  // at 7345.678 ms, kept as 7345 ms.
  EXPECT_EQ(reclaimer.Reclaim(16, 16, -1, 7'345'678), 0u);
  for (std::size_t i = 0; i < vma->page_count(); ++i) {
    EXPECT_EQ(vma->PageAt(vma->AddrOfIndex(i)).acc_cleared_ms, 7345u)
        << "page " << i;
    EXPECT_FALSE(space.IsYoung(vma->AddrOfIndex(i))) << "page " << i;
  }
}

TEST(Reclaimer, NoSpacesNoCrash) {
  Machine machine(TinySpec(GiB), SwapConfig::Zram(64 * MiB));
  Reclaimer reclaimer(&machine);
  EXPECT_EQ(reclaimer.Reclaim(10, 100, -1, 0), 0u);
}

TEST(MachinePressure, ReclaimTriggersAboveWatermark) {
  // 16 MiB of DRAM, map and touch ~15.6 MiB: over the 92 % watermark.
  Machine machine(TinySpec(16 * MiB), SwapConfig::Zram(64 * MiB));
  AddressSpace space(1, &machine, 3.0);
  const std::uint64_t pages = (15 * MiB + 600 * KiB) / kPageSize;
  space.Map(0, pages * kPageSize, "a");
  space.TouchRange(0, pages * kPageSize, false, 0);
  EXPECT_TRUE(machine.UnderPressure());
  space.MaintainLogs(20 * kUsPerSec);
  for (int i = 0; i < 10 && machine.UnderPressure(); ++i) {
    machine.RunReclaimIfNeeded(30 * kUsPerSec + i * kUsPerSec);
  }
  EXPECT_FALSE(machine.UnderPressure());
  EXPECT_GT(machine.counters().reclaimed_pages, 0u);
}

TEST(MachinePressure, NoSwapMeansOvercommit) {
  Machine machine(TinySpec(16 * MiB), SwapConfig::None());
  AddressSpace space(1, &machine, 3.0);
  const std::uint64_t pages = 16 * MiB / kPageSize;
  space.Map(0, pages * kPageSize, "a");
  space.TouchRange(0, pages * kPageSize, false, 0);
  space.MaintainLogs(20 * kUsPerSec);
  for (int i = 0; i < 5; ++i)
    machine.RunReclaimIfNeeded(30 * kUsPerSec + i * kUsPerSec);
  // Nothing can leave; the machine records the failure instead of looping.
  EXPECT_GT(machine.counters().overcommit_events, 0u);
  EXPECT_EQ(space.resident_pages(), pages);
}

TEST(MachinePressure, ZramFootprintCountsAsDramUse) {
  Machine machine(TinySpec(GiB), SwapConfig::Zram(64 * MiB));
  AddressSpace space(1, &machine, 2.0);
  space.Map(0, 32 * kPageSize, "a");
  space.TouchRange(0, 32 * kPageSize, true, 0);
  const std::uint64_t before = machine.dram_used_bytes();
  space.PageOutRange(0, 32 * kPageSize, 0);
  // Paging out to zram halves (ratio 2.0) the footprint, not zeroes it.
  EXPECT_EQ(machine.dram_used_bytes(), before / 2);
}

}  // namespace
}  // namespace daos::sim
