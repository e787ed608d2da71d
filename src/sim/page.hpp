// Per-page state of the simulated memory subsystem.
//
// Page state models exactly the bits DAOS interacts with in a real kernel:
// present/swapped state, the PTE accessed bit the monitor samples, a dirty
// bit, huge-mapping membership, and the recency info the baseline reclaimer
// (our two-list LRU stand-in) uses.
//
// Layout: the boolean flags live in per-VMA packed bit planes (one uint64_t
// word covers 64 pages — see Vma in address_space.hpp), so the hot sweeps
// (monitor region checks, reclaim CLOCK scans, DAMOS COLD deactivation, the
// tier balancer's aging scan) test-and-clear 64 pages per operation and
// skip absent words outright. The accessed-bit clear time the monitor reads
// with every sample is a dense u32 array next to the planes (reported as
// PageView::acc_cleared_ms), and the residual cold fields below are a
// parallel side array touched only on slow paths (faults, evictions,
// migrations, reclaim and tier scans).
// Per-page state is 8 flag bits + 4 bytes of clear time + 8 bytes of
// PageMeta — 13 bytes/page, down from the 16-byte flat struct the
// pre-overhaul core kept, which is what lets large workloads map tens of
// millions of pages affordably.
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
};
inline constexpr std::size_t kPageBitPlanes = 8;

/// Cold per-page fields, kept out of the bit planes because they are
/// multi-valued and only read on slow paths.
struct PageMeta {
  /// Memory tier this frame lives in (index into the machine's
  /// TierGeometry; 0 = fast DRAM). Always 0 on an untiered machine, so
  /// single-tier runs stay bit-identical to the pre-tier engine.
  std::uint16_t tier = 0;
  std::uint8_t reclaim_gen = 0;  // CLOCK second-chance counter
  std::uint8_t pad = 0;
  /// Simulated milliseconds of the most recent direct touch. Range touches
  /// are kept in the VMA touch log instead. Only the tier balancer reads
  /// it, so untiered machines skip maintaining it on the touch fast path.
  std::uint32_t last_touch_ms = 0;
};

static_assert(sizeof(PageMeta) == 8, "PageMeta must stay compact");

/// Value snapshot of one page's state, assembled from the bit planes, the
/// clear-time array and the meta side array by Vma::PageAt. For tests and
/// debugging output — the sim's own hot paths operate on the planes
/// directly. Flag bit positions match the PageBit plane indices.
struct PageView {
  std::uint8_t flags = 0;
  /// Simulated milliseconds of the last accessed-bit clearing (MkOld).
  std::uint32_t acc_cleared_ms = 0;
  PageMeta meta;

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
