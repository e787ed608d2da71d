// Per-page state of the simulated memory subsystem.
//
// Page state models exactly the bits DAOS interacts with in a real kernel:
// present/swapped state, the PTE accessed bit the monitor samples, a dirty
// bit, huge-mapping membership, and the recency info the baseline reclaimer
// (our two-list LRU stand-in) uses.
//
// Layout: every per-page field is either a bit plane or a dense array of
// one VMA (see Vma in address_space.hpp). The flags, the CLOCK probation
// bit and the three bits of the tier index are packed bit planes (one
// uint64_t word covers 64 pages), so the hot sweeps (monitor region checks,
// reclaim CLOCK scans, DAMOS COLD deactivation, the tier balancer's aging
// scan) test-and-clear 64 pages per operation and skip absent words
// outright. The accessed-bit clear time the monitor reads with every sample
// is a dense u32 array next to the planes, and so is the last direct-touch
// time, which only the tier balancer reads and which exists only on a
// tiered machine. Per-page state is about 5.5 bytes on an untiered machine
// (12 plane bits and 4 bytes of clear time) and 9.5 on a tiered one, which
// is what lets large workloads map tens of millions of pages affordably.
#pragma once

#include <cstddef>
#include <cstdint>

namespace daos::sim {

/// Bit-plane index of each page flag inside a VMA's packed bitmaps.
enum class PageBit : std::uint8_t {
  kPresent = 0,      // resident in DRAM
  kAccessed = 1,     // PTE accessed bit (set on touch, cleared by monitor)
  kDirty = 2,        // written since last swap-out
  kHuge = 3,         // part of a 2 MiB huge mapping
  kSwapped = 4,      // contents live on a swap device
  kEverTouched = 5,  // workload actually accessed it at least once
  kDeactivated = 6,  // DAMOS COLD: first in line for reclaim
  kHugeBloat = 7,    // became resident only via THP promotion
  kProbation = 8,    // CLOCK: passed over once while idle (evict next time)
  kTier0 = 9,        // bits 0..2 of the tier index (Vma::TierAt); 0 while
  kTier1 = 10,       // the page is not present, and always 0 untiered
  kTier2 = 11,
};
inline constexpr std::size_t kPageBitPlanes = 12;
inline constexpr std::size_t kTierPlanes = 3;

/// Value snapshot of one page's state, assembled from the bit planes and
/// the dense arrays by Vma::PageAt. For tests and debugging output — the
/// sim's own hot paths operate on the planes directly. Flag bit positions
/// match the PageBit plane indices.
struct PageView {
  std::uint16_t flags = 0;
  /// Memory tier of the frame (index into the machine's TierGeometry;
  /// 0 = fast DRAM, and 0 for every page of an untiered machine).
  std::uint16_t tier = 0;
  /// Simulated milliseconds of the last accessed-bit clearing (MkOld).
  std::uint32_t acc_cleared_ms = 0;
  /// Simulated milliseconds of the most recent direct touch (range touches
  /// are kept in the VMA touch log instead); 0 on an untiered machine.
  std::uint32_t last_touch_ms = 0;

  bool Test(PageBit b) const noexcept {
    return (flags >> static_cast<unsigned>(b)) & 1u;
  }
  bool Present() const noexcept { return Test(PageBit::kPresent); }
  bool Accessed() const noexcept { return Test(PageBit::kAccessed); }
  bool Dirty() const noexcept { return Test(PageBit::kDirty); }
  bool Huge() const noexcept { return Test(PageBit::kHuge); }
  bool Swapped() const noexcept { return Test(PageBit::kSwapped); }
  bool EverTouched() const noexcept { return Test(PageBit::kEverTouched); }
  bool Deactivated() const noexcept { return Test(PageBit::kDeactivated); }
  bool HugeBloat() const noexcept { return Test(PageBit::kHugeBloat); }
};

}  // namespace daos::sim
