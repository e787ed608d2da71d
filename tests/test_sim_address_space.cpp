#include "sim/address_space.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "sim/machine.hpp"
#include "trace/format.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "util/rng.hpp"

namespace daos::sim {
namespace {

MachineSpec SmallSpec() { return MachineSpec{"test", 4, 3.0, 1 * GiB}; }

class AddressSpaceTest : public ::testing::Test {
 protected:
  Machine machine_{SmallSpec(), SwapConfig::Zram(64 * MiB)};
  AddressSpace space_{1, &machine_, 3.0};
  TouchStats touched_;  // stats of touches a test does not inspect
};

TEST_F(AddressSpaceTest, MapCreatesVma) {
  Vma* vma = space_.Map(0x10000, 64 * kPageSize, "heap");
  ASSERT_NE(vma, nullptr);
  EXPECT_EQ(vma->start(), 0x10000u);
  EXPECT_EQ(vma->size(), 64 * kPageSize);
  EXPECT_EQ(vma->page_count(), 64u);
  EXPECT_EQ(space_.mapped_bytes(), 64 * kPageSize);
}

TEST_F(AddressSpaceTest, MapRejectsInvalidAndOverlapping) {
  EXPECT_EQ(space_.Map(0x10000, 0, "empty"), nullptr);
  ASSERT_NE(space_.Map(0x10000, 4 * kPageSize, "a"), nullptr);
  // Overlapping the existing vma is refused and changes nothing.
  EXPECT_EQ(space_.Map(0x10000 + kPageSize, 4 * kPageSize, "b"), nullptr);
  EXPECT_EQ(space_.mapped_bytes(), 4 * kPageSize);
  EXPECT_EQ(space_.vmas().size(), 1u);
}

TEST_F(AddressSpaceTest, MapBumpsLayoutGeneration) {
  const auto g0 = space_.layout_generation();
  space_.Map(0x10000, kPageSize, "a");
  EXPECT_GT(space_.layout_generation(), g0);
}

TEST_F(AddressSpaceTest, FindVmaHitsAndMisses) {
  space_.Map(0x10000, 4 * kPageSize, "a");
  space_.Map(0x100000, 4 * kPageSize, "b");
  EXPECT_NE(space_.FindVma(0x10000), nullptr);
  EXPECT_NE(space_.FindVma(0x10000 + 3 * kPageSize), nullptr);
  EXPECT_EQ(space_.FindVma(0x10000 + 4 * kPageSize), nullptr);
  EXPECT_EQ(space_.FindVma(0x0), nullptr);
  EXPECT_EQ(space_.FindVma(0x100000)->name(), "b");
}

TEST_F(AddressSpaceTest, TouchFaultsInPage) {
  space_.Map(0x10000, 4 * kPageSize, "a");
  TouchStats st;
  space_.TouchPage(0x10000, false, 0, st);
  EXPECT_EQ(st.minor_faults, 1u);
  EXPECT_EQ(st.major_faults, 0u);
  EXPECT_EQ(space_.resident_pages(), 1u);
  EXPECT_TRUE(space_.IsResident(0x10000));
  EXPECT_GT(st.stall_us, 0.0);
}

TEST_F(AddressSpaceTest, SecondTouchNoFault) {
  space_.Map(0x10000, 4 * kPageSize, "a");
  space_.TouchPage(0x10000, false, 0, touched_);
  TouchStats st;
  space_.TouchPage(0x10000, false, 1000, st);
  EXPECT_EQ(st.minor_faults, 0u);
  EXPECT_DOUBLE_EQ(st.stall_us, 0.0);
}

TEST_F(AddressSpaceTest, TouchOutsideMappingIsNoop) {
  TouchStats st;
  space_.TouchPage(0xdead000, false, 0, st);
  EXPECT_EQ(st.pages, 0u);
  EXPECT_EQ(space_.resident_pages(), 0u);
}

TEST_F(AddressSpaceTest, TouchChargesMachineFrames) {
  space_.Map(0x10000, 4 * kPageSize, "a");
  space_.TouchPage(0x10000, false, 0, touched_);
  space_.TouchPage(0x10000 + kPageSize, false, 0, touched_);
  EXPECT_EQ(machine_.used_frames(), 2u);
}

TEST_F(AddressSpaceTest, MkOldAndIsYoung) {
  space_.Map(0x10000, 4 * kPageSize, "a");
  space_.TouchPage(0x10000, false, 0, touched_);
  EXPECT_TRUE(space_.IsYoung(0x10000));
  space_.MkOld(0x10000, 1000);
  EXPECT_FALSE(space_.IsYoung(0x10000));
  space_.TouchPage(0x10000, false, 2000, touched_);
  EXPECT_TRUE(space_.IsYoung(0x10000));
}

TEST_F(AddressSpaceTest, RangeTouchVisibleThroughLog) {
  space_.Map(0x10000, 1024 * kPageSize, "a");
  // Populate, then clear one page's accessed bit.
  space_.TouchRange(0x10000, 0x10000 + 1024 * kPageSize, false, 0);
  const Addr probe = 0x10000 + 100 * kPageSize;
  space_.MkOld(probe, 1 * kUsPerSec);
  EXPECT_FALSE(space_.IsYoung(probe));
  // A later range sweep over the whole area must mark it young again even
  // though the fast path does not touch the page struct.
  space_.TouchRange(0x10000, 0x10000 + 1024 * kPageSize, false,
                    2 * kUsPerSec);
  EXPECT_TRUE(space_.IsYoung(probe));
}

TEST_F(AddressSpaceTest, RangeTouchBeforeMkOldNotYoung) {
  space_.Map(0x10000, 1024 * kPageSize, "a");
  space_.TouchRange(0x10000, 0x10000 + 1024 * kPageSize, false, 0);
  const Addr probe = 0x10000 + 5 * kPageSize;
  space_.MkOld(probe, 5 * kUsPerSec);  // cleared after the sweep
  EXPECT_FALSE(space_.IsYoung(probe));
}

TEST_F(AddressSpaceTest, ClearTimeKeepsWholeMilliseconds) {
  // MkOld stores its clear time truncated to whole milliseconds, so a
  // logged range sweep earlier in the same millisecond still reads young
  // and one a microsecond before that millisecond reads old.
  constexpr Addr kEarly = 0x40000000;
  constexpr Addr kSameMs = 0x40400000;
  for (const Addr base : {kEarly, kSameMs}) {
    ASSERT_NE(space_.Map(base, kHugePageSize, "a"), nullptr);
    space_.TouchRange(base, base + kHugePageSize, false, 0);
    space_.MkOld(base + 7 * kPageSize, 5900);
  }
  const PageView cleared =
      space_.FindVma(kEarly)->PageAt(kEarly + 7 * kPageSize);
  EXPECT_EQ(cleared.acc_cleared_ms, 5u);
  EXPECT_FALSE(cleared.Accessed());

  space_.TouchRange(kEarly, kEarly + kHugePageSize, false, 4999);
  space_.TouchRange(kSameMs, kSameMs + kHugePageSize, false, 5000);
  EXPECT_FALSE(space_.IsYoung(kEarly + 7 * kPageSize));
  EXPECT_TRUE(space_.IsYoung(kSameMs + 7 * kPageSize));
  // Both sweeps went through the touch log, not the accessed bit.
  const Vma& same_ms = *space_.FindVma(kSameMs);
  EXPECT_FALSE(same_ms.PageAt(kSameMs + 7 * kPageSize).Accessed());
  EXPECT_EQ(same_ms.PageAt(kSameMs + 7 * kPageSize).acc_cleared_ms, 5u);
}

TEST_F(AddressSpaceTest, PageOutRangeEvictsToSwap) {
  space_.Map(0x10000, 64 * kPageSize, "a");
  space_.TouchRange(0x10000, 0x10000 + 64 * kPageSize, true, 0);
  const std::uint64_t evicted =
      space_.PageOutRange(0x10000, 0x10000 + 64 * kPageSize, kUsPerSec);
  EXPECT_EQ(evicted, 64 * kPageSize);
  EXPECT_EQ(space_.resident_pages(), 0u);
  EXPECT_EQ(space_.swapped_pages(), 64u);
  EXPECT_EQ(machine_.swap().used_slots(), 64u);
  EXPECT_EQ(machine_.used_frames(), 0u);
}

TEST_F(AddressSpaceTest, SwappedTouchIsMajorFault) {
  space_.Map(0x10000, 4 * kPageSize, "a");
  space_.TouchPage(0x10000, true, 0, touched_);
  space_.PageOutRange(0x10000, 0x10000 + kPageSize, 0);
  TouchStats st;
  space_.TouchPage(0x10000, false, kUsPerSec, st);
  EXPECT_EQ(st.major_faults, 1u);
  EXPECT_EQ(space_.major_faults(), 1u);
  EXPECT_GE(st.stall_us,
            static_cast<double>(machine_.swap().config().page_in_us));
  EXPECT_TRUE(space_.IsResident(0x10000));
  EXPECT_EQ(machine_.swap().used_slots(), 0u);
}

TEST_F(AddressSpaceTest, SwapInRangeBringsPagesBack) {
  space_.Map(0x10000, 16 * kPageSize, "a");
  space_.TouchRange(0x10000, 0x10000 + 16 * kPageSize, true, 0);
  space_.PageOutRange(0x10000, 0x10000 + 16 * kPageSize, 0);
  const std::uint64_t bytes =
      space_.SwapInRange(0x10000, 0x10000 + 16 * kPageSize, kUsPerSec);
  EXPECT_EQ(bytes, 16 * kPageSize);
  EXPECT_EQ(space_.resident_pages(), 16u);
  EXPECT_EQ(space_.swapped_pages(), 0u);
}

TEST_F(AddressSpaceTest, DeactivateMarksPages) {
  space_.Map(0x10000, 8 * kPageSize, "a");
  space_.TouchRange(0x10000, 0x10000 + 8 * kPageSize, false, 0);
  const std::uint64_t bytes =
      space_.DeactivateRange(0x10000, 0x10000 + 8 * kPageSize);
  EXPECT_EQ(bytes, 8 * kPageSize);
  EXPECT_TRUE(space_.FindVma(0x10000)->PageAt(0x10000).Deactivated());
  // A touch reactivates.
  space_.TouchPage(0x10000, false, kUsPerSec, touched_);
  EXPECT_FALSE(space_.FindVma(0x10000)->PageAt(0x10000).Deactivated());
}

TEST_F(AddressSpaceTest, UnmapReleasesEverything) {
  space_.Map(0x10000, 32 * kPageSize, "a");
  space_.TouchRange(0x10000, 0x10000 + 32 * kPageSize, true, 0);
  space_.PageOutRange(0x10000, 0x10000 + 8 * kPageSize, 0);
  space_.UnmapVma(0x10000);
  EXPECT_EQ(space_.mapped_bytes(), 0u);
  EXPECT_EQ(space_.resident_pages(), 0u);
  EXPECT_EQ(space_.swapped_pages(), 0u);
  EXPECT_EQ(machine_.used_frames(), 0u);
  EXPECT_EQ(machine_.swap().used_slots(), 0u);
}

TEST_F(AddressSpaceTest, DestructorReturnsFrames) {
  {
    AddressSpace other(2, &machine_, 2.0);
    other.Map(0x20000, 16 * kPageSize, "x");
    other.TouchRange(0x20000, 0x20000 + 16 * kPageSize, false, 0);
    EXPECT_EQ(machine_.used_frames(), 16u);
  }
  EXPECT_EQ(machine_.used_frames(), 0u);
}

TEST_F(AddressSpaceTest, PageOutWithoutSwapFreesNothingTouched) {
  Machine no_swap(SmallSpec(), SwapConfig::None());
  AddressSpace space(3, &no_swap, 3.0);
  space.Map(0x10000, 8 * kPageSize, "a");
  space.TouchRange(0x10000, 0x10000 + 8 * kPageSize, true, 0);
  const std::uint64_t evicted =
      space.PageOutRange(0x10000, 0x10000 + 8 * kPageSize, 0);
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(space.resident_pages(), 8u);
  EXPECT_GT(no_swap.counters().failed_evictions, 0u);
}

TEST_F(AddressSpaceTest, VmaBlockSpanClamped) {
  // A VMA smaller than one huge block still has a valid (partial) block.
  Vma* vma = space_.Map(0x10000, 16 * kPageSize, "small");
  ASSERT_NE(vma, nullptr);
  ASSERT_GE(vma->block_count(), 1u);
  const auto [lo, hi] = vma->BlockPageSpan(0);
  EXPECT_EQ(hi - lo, 16u);
  EXPECT_FALSE(vma->BlockIsFull(0));
}

TEST_F(AddressSpaceTest, FullBlockDetected) {
  Vma* vma = space_.Map(2 * kHugePageSize, 2 * kHugePageSize, "aligned");
  ASSERT_NE(vma, nullptr);
  EXPECT_TRUE(vma->BlockIsFull(0));
  EXPECT_TRUE(vma->BlockIsFull(1));
}

TEST_F(AddressSpaceTest, DirtyBitOnWrite) {
  space_.Map(0x10000, 4 * kPageSize, "a");
  space_.TouchPage(0x10000, false, 0, touched_);
  EXPECT_FALSE(space_.FindVma(0x10000)->PageAt(0x10000).Dirty());
  space_.TouchPage(0x10000, true, 0, touched_);
  EXPECT_TRUE(space_.FindVma(0x10000)->PageAt(0x10000).Dirty());
}

TEST_F(AddressSpaceTest, LogGcKeepsRecentEntries) {
  space_.Map(0x10000, 1024 * kPageSize, "a");
  space_.TouchRange(0x10000, 0x10000 + 1024 * kPageSize, false, 0);
  Vma* vma = space_.FindVma(0x10000);
  // Sweep at t=20s, GC at t=25s with a 10s horizon keeps it.
  space_.TouchRange(0x10000, 0x10000 + 1024 * kPageSize, false,
                    20 * kUsPerSec);
  space_.MaintainLogs(25 * kUsPerSec);
  EXPECT_GE(vma->log_size(), 1u);
}

TEST_F(AddressSpaceTest, MaintainLogsReportsDroppedEntries) {
  space_.Map(0x10000, 1024 * kPageSize, "a");
  space_.TouchRange(0x10000, 0x10000 + 1024 * kPageSize, false, 0);
  Vma* vma = space_.FindVma(0x10000);
  ASSERT_GE(vma->log_size(), 1u);
  // Horizon is 10s: a GC at t=20s drops the t=0 entry and reports it.
  EXPECT_GE(space_.MaintainLogs(20 * kUsPerSec), 1u);
  EXPECT_EQ(vma->log_size(), 0u);
  EXPECT_EQ(space_.MaintainLogs(21 * kUsPerSec), 0u);
}

TEST_F(AddressSpaceTest, EmptyRangeTouchLeavesLogUnchanged) {
  const Addr base = 0x10000;
  space_.Map(base, 1024 * kPageSize, "a");
  space_.TouchRange(base, base + 1024 * kPageSize, false, 0);
  const Vma* vma = space_.FindVma(base);
  const std::size_t before = vma->log_size();
  const Addr mid = base + 5 * kPageSize;
  EXPECT_EQ(space_.TouchRange(mid, mid, false, 1000).pages, 0u);
  EXPECT_EQ(space_.TouchRange(mid + 10, mid + 10, true, 2000).pages, 0u);
  EXPECT_EQ(space_.TouchRange(mid + kPageSize, mid, false, 3000).pages, 0u);
  EXPECT_EQ(vma->log_size(), before);
}

TEST_F(AddressSpaceTest, UnalignedRangeTouchReplaysIdentically) {
  // The tap and the touch log must both see the page-widened bounds: a
  // recording of an unaligned sweep over a fully resident block (the
  // log-only fast path) replays to the same accessed state.
  const Addr base = 4 * kHugePageSize;
  const std::uint64_t len = kHugePageSize;
  trace::TraceWriter writer(trace::TraceMeta{});
  space_.SetAccessTap(&writer);
  space_.Map(base, len, "heap");
  space_.TouchRange(base, base + len, false, 0);
  space_.SetAccessTap(nullptr);
  for (Addr a = base; a < base + len; a += kPageSize) space_.MkOld(a, 1000);
  space_.SetAccessTap(&writer);
  space_.TouchRange(base + 5 * kPageSize + 100, base + 9 * kPageSize + 50,
                    false, 2000);
  space_.SetAccessTap(nullptr);

  const std::optional<trace::Trace> parsed = trace::ParseTrace(writer.Finish());
  ASSERT_TRUE(parsed.has_value());
  Machine machine(SmallSpec(), SwapConfig::Zram(64 * MiB));
  AddressSpace replayed(2, &machine, 3.0);
  trace::TraceReplaySource source(
      std::make_shared<const trace::Trace>(*parsed));
  source.EmitQuantum(replayed, 0, 1000);
  for (Addr a = base; a < base + len; a += kPageSize) replayed.MkOld(a, 1000);
  source.EmitQuantum(replayed, 2000, 1000);
  ASSERT_TRUE(source.exhausted());

  std::size_t young = 0;
  for (Addr a = base; a < base + len; a += kPageSize) {
    EXPECT_EQ(space_.IsYoung(a), replayed.IsYoung(a)) << "page " << a;
    young += space_.IsYoung(a) ? 1 : 0;
  }
  EXPECT_EQ(young, 5u);  // pages 5..9: the partial first and last included
}

// FindVma resolves through the interval index (sorted start/end arrays
// rebuilt on Map/Unmap); these tests drive the rebuild edges — the same
// layout changes that used to invalidate the last-hit vmacache.

TEST_F(AddressSpaceTest, VmaIndexRebuiltByUnmap) {
  space_.Map(0x10000, 4 * kPageSize, "a");
  // Resolves "a" through the index.
  space_.TouchPage(0x10000, false, 0, touched_);
  ASSERT_NE(space_.FindVma(0x10000), nullptr);
  space_.UnmapVma(0x10000);
  EXPECT_EQ(space_.FindVma(0x10000), nullptr);
  EXPECT_FALSE(space_.IsYoung(0x10000));
}

TEST_F(AddressSpaceTest, VmaIndexRebuiltByMapBetweenTouches) {
  space_.Map(0x100000, 4 * kPageSize, "b");
  // Resolves "b" through the index.
  space_.TouchPage(0x100000, false, 0, touched_);
  // Mapping "a" below "b" shifts "b"'s position in the sorted arrays; a
  // stale index would now resolve to the wrong VMA.
  ASSERT_NE(space_.Map(0x10000, 4 * kPageSize, "a"), nullptr);
  const Vma* a = space_.FindVma(0x10000);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name(), "a");
  const Vma* b = space_.FindVma(0x100000);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->name(), "b");
  // Touch state must land in the right VMA after the re-resolve.
  space_.TouchPage(0x10000, false, 1000, touched_);
  space_.MkOld(0x100000, 1000);
  EXPECT_TRUE(space_.IsYoung(0x10000));
  EXPECT_FALSE(space_.IsYoung(0x100000));
}

TEST_F(AddressSpaceTest, VmaIndexRepeatedLookupsStayCorrect) {
  // Alternating lookups between two VMAs and a hole: every answer must
  // come back right however the previous lookups landed.
  space_.Map(0x10000, 4 * kPageSize, "a");
  space_.Map(0x100000, 4 * kPageSize, "b");
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(space_.FindVma(0x10000)->name(), "a");
    EXPECT_EQ(space_.FindVma(0x100000)->name(), "b");
    EXPECT_EQ(space_.FindVma(0x50000), nullptr);
  }
}

// Invariant sweep: resident + swapped counters must match per-page state
// after arbitrary operation sequences.
class AddressSpaceInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(AddressSpaceInvariantTest, CountersMatchPageState) {
  Machine machine(SmallSpec(), SwapConfig::Zram(64 * MiB));
  AddressSpace space(1, &machine, 3.0);
  const Addr base = 4 * kHugePageSize;
  const std::uint64_t pages = 4 * kPagesPerHuge;
  space.Map(base, pages * kPageSize, "a");
  Rng rng(GetParam());
  TouchStats touched;
  for (int step = 0; step < 500; ++step) {
    const Addr a = base + rng.NextBounded(pages) * kPageSize;
    const Addr b = base + rng.NextBounded(pages) * kPageSize;
    const Addr lo = std::min(a, b);
    const Addr hi = std::max(a, b) + kPageSize;
    switch (rng.NextBounded(6)) {
      case 0:
        space.TouchPage(a, rng.NextBool(0.5), step * 1000, touched);
        break;
      case 1:
        space.TouchRange(lo, hi, false, step * 1000);
        break;
      case 2:
        space.PageOutRange(lo, hi, step * 1000);
        break;
      case 3:
        space.SwapInRange(lo, hi, step * 1000);
        break;
      case 4:
        space.PromoteRange(lo, hi, step * 1000);
        break;
      case 5:
        space.DemoteRange(lo, hi);
        break;
    }
  }
  std::uint64_t resident = 0, swapped = 0, bloat = 0;
  const Vma* vma = space.FindVma(base);
  ASSERT_NE(vma, nullptr);
  for (std::size_t i = 0; i < vma->page_count(); ++i) {
    const auto pg = vma->PageAt(vma->AddrOfIndex(i));
    resident += pg.Present() ? 1 : 0;
    swapped += pg.Swapped() ? 1 : 0;
    bloat += pg.HugeBloat() ? 1 : 0;
    EXPECT_FALSE(pg.Present() && pg.Swapped());
  }
  EXPECT_EQ(space.resident_pages(), resident);
  EXPECT_EQ(space.swapped_pages(), swapped);
  EXPECT_EQ(space.bloat_pages(), bloat);
  EXPECT_EQ(machine.used_frames(), resident);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressSpaceInvariantTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace daos::sim
