// Simulated virtual address spaces: VMAs, pages, accessed bits, THP blocks.
//
// This is the substrate equivalent of the Linux mm structures the paper's
// kernel implementation works against (struct vma, PTEs with accessed bits,
// rmap). The workload touches pages here; the Data Access Monitor samples
// accessed bits here; DAMOS actions (PAGEOUT, HUGEPAGE, ...) mutate state
// here.
//
// Scale note: workloads map tens of GiB, but the monitor only ever samples
// O(max_nr_regions) pages per interval. To keep simulation cost independent
// of address-space size, *range* touches over fully-resident 2 MiB blocks
// are not applied page-by-page; they are recorded in a per-VMA touch log,
// and accessed-bit queries (`IsYoung`) consult both the per-page bit and
// the log. Per-page work only happens where state actually changes (faults,
// evictions, promotions) — the same pages where a real kernel would take a
// slow path too.
//
// The log is answered through per-word coverage stamps (see Vma's
// range-touch log section), so an accessed-bit query costs O(1) however
// many sweeps the log holds; the log itself stays because its cap
// eviction, coalescing and 10 s GC decide what a query sees.
//
// Per-page state (page.hpp) is bit planes and dense per-VMA arrays only:
// twelve planes (the flags, the CLOCK probation bit, the tier index), the
// accessed-bit clear times, the last-touch times on a tiered machine, and
// one resident count per 2 MiB block.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/page.hpp"
#include "sim/tier.hpp"
#include "util/types.hpp"

namespace daos::sim {

class Machine;

/// One recent "the workload swept [start, end)" event.
struct RangeTouch {
  Addr start = 0;
  Addr end = 0;
  SimTimeUs at = 0;
};

/// One page of an ordered multi-page touch (AddressSpace::TouchPages).
struct PageTouch {
  Addr addr = 0;
  bool write = false;
};

/// Outcome of a touch operation, aggregated over all pages it covered.
struct TouchStats {
  std::uint64_t pages = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t huge_pages = 0;  // touched pages backed by a huge mapping
  double stall_us = 0.0;         // fault latencies the process must absorb

  TouchStats& operator+=(const TouchStats& o) {
    pages += o.pages;
    minor_faults += o.minor_faults;
    major_faults += o.major_faults;
    huge_pages += o.huge_pages;
    stall_us += o.stall_us;
    return *this;
  }
};

/// Observer of the raw page-touch stream, the record side of the trace
/// plane (src/trace). Notifications fire after the address space accepted
/// the operation, with the page-aligned bounds it actually used, so a
/// replayer re-issuing them reproduces the exact same state transitions.
/// Map/Unmap carry no timestamp (layout calls have no clock); the tap
/// stamps them with the last touch time it has seen.
class AccessTap {
 public:
  virtual ~AccessTap() = default;
  virtual void OnMap(Addr start, std::uint64_t len, std::string_view name) = 0;
  virtual void OnUnmap(Addr start) = 0;
  virtual void OnTouchPage(Addr addr, bool write, SimTimeUs now) = 0;
  virtual void OnTouchRange(Addr start, Addr end, bool write,
                            SimTimeUs now) = 0;
};

/// A contiguous mapping, the `struct vma` equivalent.
class Vma {
 public:
  Vma(Addr start, Addr end, std::string name);

  Addr start() const noexcept { return start_; }
  Addr end() const noexcept { return end_; }
  std::uint64_t size() const noexcept { return end_ - start_; }
  const std::string& name() const noexcept { return name_; }

  bool Contains(Addr a) const noexcept { return a >= start_ && a < end_; }

  /// Value snapshot of one page's state (tests / debugging; the sim's hot
  /// paths use the bit planes below directly).
  PageView PageAt(Addr a) const;
  std::size_t PageIndex(Addr a) const noexcept {
    return static_cast<std::size_t>((a - start_) >> kPageShift);
  }
  Addr AddrOfIndex(std::size_t idx) const noexcept {
    return start_ + (static_cast<Addr>(idx) << kPageShift);
  }
  std::size_t page_count() const noexcept { return page_count_; }

  // --- packed page-state bit planes ---------------------------------------
  // The kPageBitPlanes planes live plane-major: plane p occupies words
  // [p*words_, (p+1)*words_) of bits_, with bit (i & 63) of word (i >> 6)
  // covering page index i.
  // Spare bits past page_count_ in a plane's tail word are always zero
  // (every range operation masks), so popcounts never overcount.
  std::size_t word_count() const noexcept { return words_; }
  std::uint64_t* plane(PageBit b) noexcept {
    return bits_.data() + static_cast<std::size_t>(b) * words_;
  }
  const std::uint64_t* plane(PageBit b) const noexcept {
    return bits_.data() + static_cast<std::size_t>(b) * words_;
  }
  bool TestBit(PageBit b, std::size_t i) const noexcept {
    return (plane(b)[i >> 6] >> (i & 63)) & 1u;
  }
  void SetBit(PageBit b, std::size_t i) noexcept {
    plane(b)[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void ClearBit(PageBit b, std::size_t i) noexcept {
    plane(b)[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  /// Tier index of page `i`. The tier planes are adjacent, so bit k of it
  /// is in word k * words_ past the page's word of plane kTier0.
  std::uint16_t TierAt(std::size_t i) const noexcept {
    const std::uint64_t* w = plane(PageBit::kTier0) + (i >> 6);
    std::uint64_t tier = 0;
    for (std::size_t k = 0; k < kTierPlanes; ++k)
      tier |= ((w[k * words_] >> (i & 63)) & 1u) << k;
    return static_cast<std::uint16_t>(tier);
  }
  /// The pages of bitmap word `w` outside tier 0 (only present pages can
  /// be): an OR of the word in each tier plane.
  std::uint64_t SlowWord(std::size_t w) const noexcept {
    const std::uint64_t* t = plane(PageBit::kTier0) + w;
    std::uint64_t slow = 0;
    for (std::size_t k = 0; k < kTierPlanes; ++k) slow |= t[k * words_];
    return slow;
  }
  void SetTierAt(std::size_t i, std::uint16_t tier) noexcept {
    std::uint64_t* w = plane(PageBit::kTier0) + (i >> 6);
    const std::size_t words = words_;  // the stores below may alias words_
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    for (std::size_t k = 0; k < kTierPlanes; ++k) {
      std::uint64_t& word = w[k * words];
      word = (tier >> k) & 1u ? word | bit : word & ~bit;
    }
  }
  /// Allocates the per-page last-touch times if they are not there yet.
  /// AddressSpace::Map calls it on a tiered machine, and so does
  /// Machine::SetTierGeometry for VMAs mapped before the machine became
  /// tiered; untiered machines never read or write them.
  void TrackTouchTimes() {
    if (last_touch_ms_.empty()) last_touch_ms_.assign(page_count_, 0);
  }

  // --- monitor primitives on page index `idx` (inline: the batched access
  // checks run them once per region per sampling interval, so they read
  // only the planes, the dense clear times and the touch-log stamps) ------
  /// PTE mkold: clears the accessed bit and records the clear time.
  void MkOldAt(std::size_t idx, SimTimeUs now) noexcept {
    ClearBit(PageBit::kAccessed, idx);
    cleared_ms_[idx] = static_cast<std::uint32_t>(now / 1000);
  }
  /// True if the page was accessed since its last MkOldAt: its accessed bit,
  /// or a logged range touch at or after the clear time.
  bool IsYoungAt(std::size_t idx) const {
    if (TestBit(PageBit::kAccessed, idx)) return true;
    return LogCoversSince(AddrOfIndex(idx),
                          static_cast<SimTimeUs>(cleared_ms_[idx]) * 1000);
  }

  // --- 2 MiB block bookkeeping (THP) -------------------------------------
  // Blocks are indexed over [start, end) in 2 MiB strides relative to the
  // absolutely aligned base, so block boundaries match real huge-page
  // alignment.
  std::size_t block_count() const noexcept { return block_resident_.size(); }
  std::size_t BlockOfAddr(Addr a) const noexcept {
    return static_cast<std::size_t>((a - aligned_base_) >> kHugePageShift);
  }
  /// First/last+1 page index of a block, clamped to the VMA.
  std::pair<std::size_t, std::size_t> BlockPageSpan(std::size_t block) const;
  /// Whether the block covers a full 2 MiB inside the VMA (promotable).
  bool BlockIsFull(std::size_t block) const;
  /// Resident pages in the block. A dense count, not a popcount of the
  /// present plane, because TouchRange's fast-path gate reads it per block.
  std::uint16_t BlockResident(std::size_t block) const noexcept {
    return block_resident_[block];
  }
  /// Whether the block is mapped as a 2 MiB page: PromoteBlock and
  /// DemoteBlock flip the kHuge bits of a whole block at once, so its first
  /// page answers for it.
  bool BlockIsHuge(std::size_t block) const noexcept {
    const Addr bstart =
        aligned_base_ + (static_cast<Addr>(block) << kHugePageShift);
    return TestBit(PageBit::kHuge, PageIndex(std::max(bstart, start_)));
  }

  // --- range-touch log -----------------------------------------------------
  // Entries are kept ordered by non-decreasing `at` (callers log with a
  // non-decreasing clock, and coalescing only ever refreshes or widens the
  // newest entry), so GcLog binary-searches the time axis.
  //
  // Entries carry a u64 sequence number (the oldest is head_seq_). Since
  // `at` never decreases as the sequence grows, a page is covered since
  // `since` exactly when the newest entry ever painted over it is still in
  // the log and has `at >= since`. Each 64-page word keeps stamps naming
  // that entry: a full stamp for the newest entry covering every in-VMA
  // page of the word, a partial stamp and mask for the newest one covering
  // only some. Logging paints the stamps of the words an entry covers (a
  // same-instant overlap extension paints with the back entry's sequence,
  // a same-window refresh changes no coverage and paints nothing), and a
  // query reads the word's stamps and one log entry. One partial stamp
  // cannot remember two entries: when a partial paint displaces an older
  // partial that is still newer than the full stamp and covered pages
  // outside the new mask, the word becomes ambiguous, and queries for its
  // pages outside the mask fall back to a newest-first log scan that stops
  // at the first entry older than `since`. The next full paint of the word
  // ends that. Share of queries that fell back (perfbench, seed 1): 3.6 %
  // on fig7_dense, 13.6 % on fig7_sparse (its per-block ranges leave two
  // partial entries in the words between blocks), 0 % on fleet_rollout,
  // 3.5 % on tiered_pressure. The stamps cost 32 B per 64 pages.
  /// Logs a sweep of [s, e): page-aligned, non-empty, inside the VMA.
  void LogRangeTouch(Addr s, Addr e, SimTimeUs now);
  /// True if the log records a sweep covering `a` (inside the VMA) at or
  /// after `since`.
  bool LogCoversSince(Addr a, SimTimeUs since) const {
    const std::size_t i = PageIndex(a);
    const PartStamp& p = part_[i >> 6];
    std::uint64_t seq = full_[i >> 6];
    if (((p.mask >> (i & 63)) & 1u) != 0 && p.seq > seq) {
      seq = p.seq;
    } else if (p.ambiguous_full == seq) {
      return ScanLog(a, since);
    }
    return seq >= head_seq_ && LogAt(seq - head_seq_).at >= since;
  }
  /// Drops entries older than `now - horizon`; returns how many.
  std::size_t GcLog(SimTimeUs now, SimTimeUs horizon);
  std::size_t log_size() const noexcept { return log_len_; }

 private:
  friend class AddressSpace;

  Addr start_;
  Addr end_;
  Addr aligned_base_;  // AlignDown(start, 2 MiB)
  std::string name_;
  std::size_t page_count_ = 0;
  std::size_t words_ = 0;              // per-plane words: ceil(pages / 64)
  std::vector<std::uint64_t> bits_;    // kPageBitPlanes planes, plane-major
  std::vector<std::uint32_t> cleared_ms_;  // per page: last MkOldAt, in ms
  // Per page: last direct touch, in ms; empty until TrackTouchTimes.
  std::vector<std::uint32_t> last_touch_ms_;
  std::vector<std::uint16_t> block_resident_;  // per 2 MiB block

  // Per-word coverage stamps: sequence numbers of log entries, 0 (never
  // given out) for none. full_[w] names the newest entry covering every
  // in-VMA page of word w; it is a dense array so a long sweep paints its
  // whole words with one fill. part_[w] names the newest entry covering
  // only the pages in its mask. A u64 sequence never wraps: one entry a
  // nanosecond would take 584 years to exhaust it.
  struct PartStamp {
    std::uint64_t mask = 0;
    std::uint64_t seq = 0;
    // The word is ambiguous while full_[w] still equals this: a page
    // outside mask may have an entry newer than full_[w] that no stamp
    // names. A full paint moves full_[w] on, which clears the mark. No
    // sequence number reaches the initial value.
    std::uint64_t ambiguous_full = ~std::uint64_t{0};
  };
  /// Records entry `seq` as the newest one covering page indices [lo, hi).
  void PaintStamps(std::size_t lo, std::size_t hi, std::uint64_t seq);
  /// Records entry `seq` as the newest one covering the pages `m` selects
  /// in word `w`.
  void PaintWord(std::size_t w, std::uint64_t m, std::uint64_t seq);
  bool ScanLog(Addr a, SimTimeUs since) const;
  std::uint64_t BackSeq() const noexcept { return head_seq_ + log_len_ - 1; }
  /// The k-th oldest entry of the log, k < log_len_.
  RangeTouch& LogAt(std::size_t k) noexcept {
    return ring_[(log_first_ + k) & (ring_.size() - 1)];
  }
  const RangeTouch& LogAt(std::size_t k) const noexcept {
    return ring_[(log_first_ + k) & (ring_.size() - 1)];
  }
  /// Drops the `n` oldest entries.
  void DropOldest(std::size_t n) noexcept;

  // The log is a ring over a power-of-two vector: entry k (sequence number
  // head_seq_ + k) sits in slot (log_first_ + k) mod ring_.size(). The ring
  // doubles when full and, since cap eviction frees a slot before the push,
  // never outgrows the cap. Unlike a std::deque it moves without throwing,
  // so std::vector<Vma> growth moves VMAs instead of copying their planes.
  std::vector<RangeTouch> ring_;
  std::size_t log_first_ = 0;
  std::size_t log_len_ = 0;
  std::vector<std::uint64_t> full_;  // one per bitmap word
  std::vector<PartStamp> part_;      // one per bitmap word
  std::uint64_t head_seq_ = 1;       // sequence number of the oldest entry
};

static_assert(std::is_nothrow_move_constructible_v<Vma>);
static_assert(kMaxTiers == std::size_t{1} << kTierPlanes,
              "the tier planes hold every tier index");

/// One step of a CLOCK hand over `vma`, shared by the reclaimer and the tier
/// balancer. Candidates are present, non-huge pages. From `cursor` (inside
/// the VMA, `budget` > 0) the hand either passes the non-candidates before
/// the next candidate or the end of the 64-page word, charging one budget
/// unit per page and stopping when the budget runs out, and returns false;
/// or it stands on a candidate, sets `idx` to it, moves past it for one unit
/// and returns true.
inline bool ClockStep(const Vma& vma, std::size_t& cursor,
                      std::uint64_t& budget, std::size_t& idx) {
  const std::size_t w = cursor >> 6;
  const std::uint64_t cand =
      vma.plane(PageBit::kPresent)[w] & ~vma.plane(PageBit::kHuge)[w] &
      (~std::uint64_t{0} << (cursor & 63));
  const std::size_t next =
      cand == 0 ? std::min(vma.page_count(), (w + 1) << 6)
                : (w << 6) + static_cast<std::size_t>(std::countr_zero(cand));
  if (next > cursor) {
    const std::uint64_t charge = std::min<std::uint64_t>(next - cursor, budget);
    cursor += charge;
    budget -= charge;
    return false;
  }
  idx = cursor++;
  --budget;
  return true;
}

/// A process's virtual address space.
class AddressSpace {
 public:
  /// `machine` provides frame accounting, the swap device and THP policy;
  /// it must outlive the address space. `zram_ratio` is this process's
  /// page compressibility (original/compressed) on compressed swap.
  AddressSpace(int id, Machine* machine, double zram_ratio);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  int id() const noexcept { return id_; }
  double zram_ratio() const noexcept { return zram_ratio_; }

  // --- layout ---------------------------------------------------------------
  /// Maps [start, start+len) page-aligned. Returns nullptr (operation
  /// refused, address space unchanged) on a zero-length request or overlap
  /// with an existing VMA — caller-controllable inputs fail recoverably
  /// instead of aborting. The pointer is invalidated by the next Map/Unmap.
  Vma* Map(Addr start, std::uint64_t len, std::string name);
  /// Unmaps a whole VMA identified by its start address; frees its frames.
  void UnmapVma(Addr start);
  const std::vector<Vma>& vmas() const noexcept { return vmas_; }
  std::vector<Vma>& vmas() noexcept { return vmas_; }
  Vma* FindVma(Addr a);
  const Vma* FindVma(Addr a) const;
  /// Bumped on every Map/Unmap; the monitor's regions-update logic uses it
  /// to detect layout changes (the paper's mmap()/hotplug events).
  std::uint64_t layout_generation() const noexcept { return layout_gen_; }

  /// Arms/disarms the trace tap (nullptr). Exactly one tap; it must
  /// outlive the space or be detached first. Disarmed costs one branch per
  /// touch call, same discipline as the fault plane.
  void SetAccessTap(AccessTap* tap) noexcept { tap_ = tap; }
  AccessTap* access_tap() const noexcept { return tap_; }

  // --- workload side ----------------------------------------------------------
  /// Touches one page: TouchPages over a batch of one.
  void TouchPage(Addr addr, bool write, SimTimeUs now, TouchStats& into) {
    const PageTouch page{addr, write};
    TouchPages({&page, 1}, now, into);
  }
  /// Touches `pages` in the given order, exactly as that many TouchPage
  /// calls would: the tap sees one OnTouchPage per page in order, pages
  /// outside every VMA are skipped after the tap saw them, and each page's
  /// stats are added into `st` on their own (`st += page`), so stall_us sums
  /// in the same order. The VMA is looked up again only when a page falls
  /// outside the last one.
  void TouchPages(std::span<const PageTouch> pages, SimTimeUs now,
                  TouchStats& st);
  /// Touches every page of [start, end) widened to page bounds and adds the
  /// range's stats into `into`, exactly as `into += TouchRange(...)` would:
  /// the pages' stall_us sums from 0 and reaches `into` once. The tap and
  /// the touch log see those bounds, and an empty range is a no-op that
  /// reaches neither. Fully-resident blocks (no bloat, no slow-tier pages)
  /// cost O(1) via the touch log. Other blocks go one 64-page bitmap word at
  /// a time in address order: mask operations when every page of the word
  /// is present (on a tiered machine its slow pages then add their tier
  /// latency in page order), page by page (faults charged per missing page)
  /// otherwise.
  void TouchRange(Addr start, Addr end, bool write, SimTimeUs now,
                  TouchStats& into);
  /// The range's stats on their own.
  TouchStats TouchRange(Addr start, Addr end, bool write, SimTimeUs now) {
    TouchStats st;
    TouchRange(start, end, write, now, st);
    return st;
  }

  // --- monitor primitives ----------------------------------------------------
  /// Clears the accessed state of the page at `addr` (PTE mkold).
  void MkOld(Addr addr, SimTimeUs now);
  /// True if the page was accessed since its last MkOld. MkOld records the
  /// clear time truncated to whole milliseconds (PageView::acc_cleared_ms),
  /// so a logged range touch earlier in the same simulated millisecond as
  /// the MkOld still reads young.
  bool IsYoung(Addr addr) const;
  /// True if addr is backed by a resident page. Only tests call it: it is
  /// the one-page residency oracle (pagemap's present bit) that the
  /// address-space, bitmap, reclaim, DAMOS and generator tests read.
  bool IsResident(Addr addr) const;

  // --- DAMOS action side ------------------------------------------------------
  /// Evicts resident pages in [start, end) to the machine's swap device.
  /// Huge mappings inside the range are demoted first (as the kernel splits
  /// THPs on pageout). Returns bytes actually paged out. Transient write
  /// errors (injected swap.write_error) skip the page — it stays resident —
  /// and are counted into `*errors` when non-null; a full device stops the
  /// range.
  std::uint64_t PageOutRange(Addr start, Addr end, SimTimeUs now,
                             std::uint64_t* errors = nullptr);
  /// Swaps in any swapped pages in the range (WILLNEED). Returns bytes.
  std::uint64_t SwapInRange(Addr start, Addr end, SimTimeUs now);
  /// Marks the range as reclaim-first (COLD). Returns bytes affected.
  std::uint64_t DeactivateRange(Addr start, Addr end);
  /// Promotes fully-contained 2 MiB blocks to huge mappings (HUGEPAGE).
  /// Untouched sub-pages become resident "bloat". Returns bytes newly
  /// resident. Injected collapse failures are counted into `*errors`.
  std::uint64_t PromoteRange(Addr start, Addr end, SimTimeUs now,
                             std::uint64_t* errors = nullptr);
  /// Splits huge mappings in the range (NOHUGEPAGE) and frees sub-pages the
  /// workload never touched (the bloat). Returns bytes freed.
  std::uint64_t DemoteRange(Addr start, Addr end);
  /// Tier migration (MIGRATE_HOT when `promote`, MIGRATE_COLD otherwise):
  /// moves resident non-huge pages in [start, end) toward the fast tier
  /// (promotion, refused range-wide once tier 0 is full) or down to the
  /// next tier with room (demotion; bottom-tier pages stay put). Returns
  /// bytes migrated. Injected tier.migrate_fail leaves the page in its
  /// source tier and counts into `*errors`. No-op (one branch) untiered.
  std::uint64_t MigrateRange(Addr start, Addr end, SimTimeUs now,
                             bool promote, std::uint64_t* errors = nullptr);
  /// One bounded CLOCK sweep for the machine's tier balancer / kswapd
  /// demotion cascade: scans up to `*budget` pages (decremented in place)
  /// from a per-tier cursor and demotes `from_tier` pages idle for the
  /// tier-idle horizon to the next tier with room, stopping after
  /// `max_demote` demotions. An up accessed bit buys the page one round
  /// (the scan clears it, kswapd page-aging style). Returns pages demoted.
  std::uint64_t TierDemoteScan(std::uint16_t from_tier, std::uint64_t* budget,
                               std::uint64_t max_demote, SimTimeUs now);

  // --- THP internals (also used by the machine's khugepaged) -----------------
  /// Promotes one block of `vma` to a huge mapping. Returns bytes newly
  /// resident, or 0 if not promotable (or the collapse failed — counted in
  /// the machine's thp_collapse_errors and `*errors` when non-null).
  std::uint64_t PromoteBlock(Vma& vma, std::size_t block, SimTimeUs now,
                             std::uint64_t* errors = nullptr);
  std::uint64_t DemoteBlock(Vma& vma, std::size_t block);

  // --- reclaim support --------------------------------------------------------
  enum class EvictOutcome : std::uint8_t {
    kEvicted,       // stored to swap, page now non-resident
    kFreed,         // never-touched bloat page dropped without swap
    kWriteError,    // injected device write failure; page stays resident
    kNoSlot,        // swap full or absent; page stays resident
    kNotEvictable,  // not present, or huge-mapped
  };
  /// Evicts one specific resident, non-huge page (used by the baseline
  /// reclaimer and PageOutRange), distinguishing why eviction did not
  /// happen so callers can fall back per-cause.
  EvictOutcome TryEvictPage(Vma& vma, std::size_t page_idx);
  /// Convenience wrapper: true when the page left memory. On any failure —
  /// including a transient write error — the reclaimer just moves to the
  /// next victim.
  bool EvictPage(Vma& vma, std::size_t page_idx) {
    const EvictOutcome o = TryEvictPage(vma, page_idx);
    return o == EvictOutcome::kEvicted || o == EvictOutcome::kFreed;
  }

  // --- statistics --------------------------------------------------------------
  std::uint64_t resident_bytes() const noexcept {
    return resident_pages_ * kPageSize;
  }
  std::uint64_t resident_pages() const noexcept { return resident_pages_; }
  std::uint64_t swapped_pages() const noexcept { return swapped_pages_; }
  std::uint64_t mapped_bytes() const noexcept { return mapped_bytes_; }
  std::uint64_t major_faults() const noexcept { return major_faults_; }
  std::uint64_t minor_faults() const noexcept { return minor_faults_; }
  /// Pages currently resident solely due to THP promotion (never touched).
  std::uint64_t bloat_pages() const noexcept { return bloat_pages_; }
  std::uint64_t huge_blocks() const noexcept { return huge_blocks_; }
  /// Evictions split by dirtiness: dirty pages must be written to the swap
  /// device, clean ones can be dropped (swap-cache hit) — the distinction
  /// that matters on read/write-asymmetric devices (paper "Limitations").
  std::uint64_t dirty_evictions() const noexcept { return dirty_evictions_; }
  std::uint64_t clean_evictions() const noexcept { return clean_evictions_; }

  /// Drops touch-log entries older than the monitoring horizon. Returns the
  /// number of entries dropped (published as "sim.touchlog.gc_entries").
  std::uint64_t MaintainLogs(SimTimeUs now);

 private:
  /// Faults the page in and counts the fault into `st`; returns its stall.
  double FaultIn(Vma& vma, std::size_t page_idx, bool write, SimTimeUs now,
                 TouchStats& st);
  void MakeResident(Vma& vma, std::size_t page_idx, bool via_thp);
  void MakeNonResident(Vma& vma, std::size_t page_idx);
  /// One page's share of a touch: faults it in if needed, then sets its
  /// accessed/ever-touched/dirty state. Its counts go into `st`, and its
  /// stall into `stall_us`: the fault's total, then the tier's latency.
  /// Always inlined, so each caller's sums can live in registers.
  [[gnu::always_inline]] inline void TouchPageAt(Vma& vma, std::size_t idx,
                                                 bool write, SimTimeUs now,
                                                 TouchStats& st,
                                                 double& stall_us);
  /// Calls fn(vma, lo, hi) for each VMA overlapping [start, end), in address
  /// order through the interval index, with [lo, hi) the overlap clamped to
  /// the VMA, until fn returns false.
  template <typename Fn>
  void ForEachVmaSpan(Addr start, Addr end, Fn&& fn);
  /// Returns every frame, tier charge and swap slot of `vma` to the machine
  /// and drops its pages from this space's counters.
  void ReleaseVma(const Vma& vma);
  /// Moves one resident page to `to_tier`, keeping the tier accounting.
  /// Returns false when the injected migration fault fires (page untouched).
  bool MigratePage(Vma& vma, std::size_t page_idx, std::uint16_t to_tier,
                   std::uint64_t* errors);

  int id_;
  Machine* machine_;
  double zram_ratio_;
  AccessTap* tap_ = nullptr;
  std::vector<Vma> vmas_;
  std::uint64_t layout_gen_ = 0;
  // Interval index over the sorted vmas_: the VMAs' start/end addresses as
  // compact parallel arrays, rebuilt on every Map/Unmap (layout changes are
  // rare; lookups are the hot path). FindVma binary-searches vma_ends_ —
  // one cache line covers eight VMAs, versus striding across the fat Vma
  // objects — and the hit is confirmed against vma_starts_. This replaced
  // the last-hit vmacache and its generation-validation machinery: the
  // index is rebuilt at the only points that used to invalidate the cache,
  // so there is no staleness to defend against.
  std::vector<Addr> vma_starts_;
  std::vector<Addr> vma_ends_;
  void RebuildVmaIndex();
  // Tier balancer / demotion-cascade CLOCK cursors, one per source tier so
  // the fast-tier balancer and the middle-tier kswapd sweeps do not reset
  // each other's position (resumes where the last sweep stopped).
  std::array<std::size_t, kMaxTiers> tier_vma_cursor_{};
  std::array<std::size_t, kMaxTiers> tier_page_cursor_{};
  std::uint64_t mapped_bytes_ = 0;
  std::uint64_t resident_pages_ = 0;
  std::uint64_t swapped_pages_ = 0;
  std::uint64_t bloat_pages_ = 0;
  std::uint64_t huge_blocks_ = 0;
  std::uint64_t major_faults_ = 0;
  std::uint64_t minor_faults_ = 0;
  std::uint64_t dirty_evictions_ = 0;
  std::uint64_t clean_evictions_ = 0;
};

}  // namespace daos::sim
