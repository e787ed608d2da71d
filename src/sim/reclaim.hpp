// Baseline kernel reclaimer: a CLOCK/second-chance approximation of the
// Linux two-list LRU (paper §2.2 "the Linux kernel transforms the periodic
// access check results to recency information using its two LRU lists").
//
// This is the *baseline* policy DAOS competes with: it only runs under
// memory pressure, scans pages round-robin, gives accessed pages a second
// chance, and evicts DAMOS-deactivated (COLD) pages first.
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace daos::sim {

class Machine;

class Reclaimer {
 public:
  explicit Reclaimer(Machine* machine) : machine_(machine) {}

  /// Tries to evict up to `target_pages`; returns pages actually evicted.
  /// `scan_budget` bounds the number of pages examined so a single call
  /// cannot stall the simulation. Only pages in tier `victim_tier` are
  /// victims; -1 means any tier.
  std::uint64_t Reclaim(std::uint64_t target_pages, std::uint64_t scan_budget,
                        int victim_tier, SimTimeUs now);

 private:
  Machine* machine_;
  // Round-robin scan cursor across (space, vma, page).
  std::size_t space_cursor_ = 0;
  std::size_t vma_cursor_ = 0;
  std::size_t page_cursor_ = 0;
};

}  // namespace daos::sim
