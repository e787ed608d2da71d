#include "sim/reclaim.hpp"

#include "sim/address_space.hpp"
#include "sim/machine.hpp"

namespace daos::sim {

std::uint64_t Reclaimer::Reclaim(std::uint64_t target_pages,
                                 std::uint64_t scan_budget, int victim_tier,
                                 SimTimeUs now) {
  const auto& spaces = machine_->spaces();
  if (spaces.empty()) return 0;
  std::uint64_t evicted = 0;
  std::uint64_t budget = scan_budget;

  while (budget > 0 && evicted < target_pages) {
    if (space_cursor_ >= spaces.size()) space_cursor_ = 0;
    AddressSpace* space = spaces[space_cursor_];
    if (space->vmas().empty() || vma_cursor_ >= space->vmas().size()) {
      vma_cursor_ = 0;
      page_cursor_ = 0;
      ++space_cursor_;
      if (space->vmas().empty()) {
        --budget;
        continue;
      }
      if (space_cursor_ >= spaces.size()) space_cursor_ = 0;
      space = spaces[space_cursor_];
      if (space->vmas().empty()) {
        --budget;
        continue;
      }
    }
    Vma& vma = space->vmas()[vma_cursor_];
    if (page_cursor_ >= vma.page_count()) {
      page_cursor_ = 0;
      ++vma_cursor_;
      --budget;
      continue;
    }
    std::size_t idx = 0;
    if (!ClockStep(vma, page_cursor_, budget, idx)) continue;
    // Tiered kswapd evicts only from the (bottom) tier it was pointed at;
    // pages in upper tiers leave via demotion instead.
    if (victim_tier >= 0 && vma.TierAt(idx) != victim_tier) continue;
    if (vma.TestBit(PageBit::kDeactivated, idx)) {
      // DAMOS COLD regions go first, no second chance.
      if (space->EvictPage(vma, idx)) ++evicted;
      continue;
    }
    if (vma.IsYoungAt(idx)) {
      // Second chance: clear the accessed state and move on (CLOCK).
      vma.MkOldAt(idx, now);
      vma.ClearBit(PageBit::kProbation, idx);
      continue;
    }
    if (!vma.TestBit(PageBit::kProbation, idx)) {
      // Inactive-list probation: evict only on the next encounter if still
      // untouched (two-list behaviour).
      vma.SetBit(PageBit::kProbation, idx);
      continue;
    }
    if (space->EvictPage(vma, idx)) ++evicted;
  }
  return evicted;
}

}  // namespace daos::sim
