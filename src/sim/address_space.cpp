#include "sim/address_space.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "fault/fault.hpp"
#include "sim/machine.hpp"
#include "util/check.hpp"

namespace daos::sim {
namespace {

constexpr SimTimeUs kLogHorizonUs = 10 * kUsPerSec;
constexpr std::size_t kLogCap = 4096;
static_assert((kLogCap & (kLogCap - 1)) == 0, "the log ring sizes by doubling");
constexpr std::size_t kLogMinSlots = 8;
// Direct-reclaim stall charged to a task whose frame allocation had to
// reclaim synchronously (order-of-magnitude of a kernel direct reclaim).
constexpr double kAllocStallUs = 250.0;
// A fast-tier page untouched this long is fair game for the LRU balancer.
constexpr SimTimeUs kTierIdleUs = 1 * kUsPerSec;

std::uint32_t ToMs(SimTimeUs us) { return static_cast<std::uint32_t>(us / 1000); }

/// Mask selecting bit positions [lo, hi) of one word, 0 <= lo < hi <= 64.
std::uint64_t BitRangeMask(std::size_t lo, std::size_t hi) {
  const std::uint64_t all = ~std::uint64_t{0};
  return (all >> (64 - (hi - lo))) << lo;
}

/// Set bits of `word`, counted inline. On baseline x86-64 std::popcount is
/// a call into libgcc (__popcountdi2); CI fails any binary importing it.
std::uint64_t Popcount(std::uint64_t word) {
  word -= (word >> 1) & 0x5555555555555555ULL;
  word = (word & 0x3333333333333333ULL) + ((word >> 2) & 0x3333333333333333ULL);
  word = (word + (word >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return (word * 0x0101010101010101ULL) >> 56;
}

/// Mask selecting the pages of bitmap word `w` inside page indices
/// [plo, phi).
std::uint64_t WordMask(std::size_t plo, std::size_t phi, std::size_t w) {
  const std::size_t lo = std::max(plo, w << 6);
  const std::size_t hi = std::min(phi, (w + 1) << 6);
  return BitRangeMask(lo & 63, hi - (w << 6));
}

/// Calls fn(word_index, mask, first_page_of_word) for every bitmap word
/// overlapping page indices [plo, phi); the mask selects exactly the pages
/// of that word inside the range.
template <typename Fn>
void ForEachWord(std::size_t plo, std::size_t phi, Fn&& fn) {
  // WordMask per word, with the edge masks computed once.
  const std::size_t first = plo >> 6;
  const std::size_t last = (phi - 1) >> 6;
  const std::uint64_t head = ~std::uint64_t{0} << (plo & 63);
  const std::uint64_t tail = ~std::uint64_t{0} >> (63 - ((phi - 1) & 63));
  for (std::size_t w = first; w <= last; ++w) {
    std::uint64_t m = ~std::uint64_t{0};
    if (w == first) m &= head;
    if (w == last) m &= tail;
    fn(w, m, w << 6);
  }
}

/// The bits of `plane` over page indices [plo, phi), OR-ed word by word:
/// non-zero when any page of the span has the bit.
std::uint64_t SpanBits(const std::uint64_t* plane, std::size_t plo,
                       std::size_t phi) {
  std::uint64_t any = 0;
  ForEachWord(plo, phi, [&](std::size_t w, std::uint64_t m, std::size_t) {
    any |= plane[w] & m;
  });
  return any;
}

/// True if a page of [plo, phi) is outside tier 0.
bool SpanHasSlowPages(const Vma& vma, std::size_t plo, std::size_t phi) {
  std::uint64_t any = 0;
  ForEachWord(plo, phi, [&](std::size_t w, std::uint64_t m, std::size_t) {
    any |= vma.SlowWord(w) & m;
  });
  return any != 0;
}

/// Calls fn(i) for each page index i in [plo, phi) whose bit is set in
/// `plane`, in address order, until fn returns false; returns false then.
/// A word is read only when its turn comes: fn may change later words, while
/// the rest of its own word keeps the snapshot taken at the word's turn.
template <typename Fn>
bool ForEachSetBit(const std::uint64_t* plane, std::size_t plo,
                   std::size_t phi, Fn&& fn) {
  for (std::size_t w = plo >> 6; w <= (phi - 1) >> 6; ++w) {
    for (std::uint64_t word = plane[w] & WordMask(plo, phi, w); word != 0;
         word &= word - 1) {
      if (!fn((w << 6) + static_cast<std::size_t>(std::countr_zero(word)))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Vma
// ---------------------------------------------------------------------------

Vma::Vma(Addr start, Addr end, std::string name)
    : start_(start),
      end_(end),
      aligned_base_(AlignDown(start, kHugePageSize)),
      name_(std::move(name)) {
  // Bounds are validated by AddressSpace::Map before construction.
  page_count_ = static_cast<std::size_t>((end - start) >> kPageShift);
  words_ = (page_count_ + 63) / 64;
  bits_.assign(kPageBitPlanes * words_, 0);
  cleared_ms_.assign(page_count_, 0);
  const std::size_t nblocks = static_cast<std::size_t>(
      (AlignUp(end, kHugePageSize) - aligned_base_) >> kHugePageShift);
  block_resident_.assign(nblocks, 0);
  full_.resize(words_);
  part_.resize(words_);
}

PageView Vma::PageAt(Addr a) const {
  const std::size_t i = PageIndex(a);
  PageView v;
  for (std::size_t p = 0; p < kPageBitPlanes; ++p) {
    v.flags |= static_cast<std::uint16_t>(
        TestBit(static_cast<PageBit>(p), i) ? 1u << p : 0u);
  }
  v.tier = TierAt(i);
  v.acc_cleared_ms = cleared_ms_[i];
  if (!last_touch_ms_.empty()) v.last_touch_ms = last_touch_ms_[i];
  return v;
}

std::pair<std::size_t, std::size_t> Vma::BlockPageSpan(std::size_t block) const {
  const Addr bstart = aligned_base_ + (static_cast<Addr>(block) << kHugePageShift);
  const Addr bend = bstart + kHugePageSize;
  const Addr lo = std::max(bstart, start_);
  const Addr hi = std::min(bend, end_);
  return {PageIndex(lo), PageIndex(hi - 1) + 1};
}

bool Vma::BlockIsFull(std::size_t block) const {
  const auto [lo, hi] = BlockPageSpan(block);
  return hi - lo == kPagesPerHuge;
}

void Vma::LogRangeTouch(Addr s, Addr e, SimTimeUs now) {
  assert(s % kPageSize == 0 && e % kPageSize == 0 && start_ <= s && s < e &&
         e <= end_);
  if (log_len_ != 0) {
    RangeTouch& back = LogAt(log_len_ - 1);
    // Coalesce repeats of the same sweep window (a stable hot set touched
    // every quantum) and contiguous/overlapping same-instant touches (a
    // sweep emitted block by block). A refresh covers no new page, so the
    // stamps already name the back entry; an extension widens the back
    // entry to the hull of two overlapping ranges, so painting [s, e)
    // covers every page it gained.
    if (back.start == s && back.end == e) {
      back.at = now;
      return;
    }
    if (back.at == now && s <= back.end && e >= back.start) {
      back.start = std::min(back.start, s);
      back.end = std::max(back.end, e);
      PaintStamps(PageIndex(s), PageIndex(e), BackSeq());
      return;
    }
  }
  // Evicting the oldest entry before the push rather than after it gives
  // the new entry the same sequence number, and painting reads no entry.
  if (log_len_ == kLogCap) DropOldest(1);
  if (log_len_ == ring_.size()) {
    // Full: unroll the ring so the oldest entry sits in slot 0, then double.
    std::rotate(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(log_first_),
                ring_.end());
    ring_.resize(std::max(kLogMinSlots, 2 * ring_.size()));
    log_first_ = 0;
  }
  LogAt(log_len_++) = RangeTouch{s, e, now};
  PaintStamps(PageIndex(s), PageIndex(e), BackSeq());
}

void Vma::DropOldest(std::size_t n) noexcept {
  log_first_ = (log_first_ + n) & (ring_.size() - 1);
  log_len_ -= n;
  head_seq_ += n;
}

void Vma::PaintStamps(std::size_t lo, std::size_t hi, std::uint64_t seq) {
  // `seq` is the newest sequence number given out, so it outranks every
  // stamp it overwrites. Only the two edge words can be partly covered:
  // every word between them is whole and not the VMA's tail word.
  const std::size_t first = lo >> 6;
  const std::size_t last = (hi - 1) >> 6;
  const std::size_t first_hi = first == last ? ((hi - 1) & 63) + 1 : 64;
  PaintWord(first, BitRangeMask(lo & 63, first_hi), seq);
  if (last == first) return;
  std::fill(full_.begin() + static_cast<std::ptrdiff_t>(first + 1),
            full_.begin() + static_cast<std::ptrdiff_t>(last), seq);
  PaintWord(last, BitRangeMask(0, ((hi - 1) & 63) + 1), seq);
}

void Vma::PaintWord(std::size_t w, std::uint64_t m, std::uint64_t seq) {
  const std::uint64_t in_vma = w + 1 < words_
                                   ? ~std::uint64_t{0}
                                   : BitRangeMask(0, page_count_ - (w << 6));
  PartStamp& p = part_[w];
  if (m == in_vma) {
    full_[w] = seq;
  } else if (p.seq == seq) {
    p.mask |= m;
  } else {
    // The displaced partial entry stays the newest for its pages outside
    // `m` if it outranks the full stamp; no stamp can name it any more.
    if (p.seq > full_[w] && (p.mask & ~m) != 0) p.ambiguous_full = full_[w];
    p.seq = seq;
    p.mask = m;
  }
}

bool Vma::ScanLog(Addr a, SimTimeUs since) const {
  // Newest first: the first covering entry is the page's newest, and once
  // `at` drops below `since` no older entry can qualify.
  for (std::size_t k = log_len_; k-- > 0;) {
    const RangeTouch& t = LogAt(k);
    if (t.at < since) return false;
    if (a >= t.start && a < t.end) return true;
  }
  return false;
}

std::size_t Vma::GcLog(SimTimeUs now, SimTimeUs horizon) {
  const SimTimeUs cutoff = now > horizon ? now - horizon : 0;
  // The stale prefix ends at the first entry >= cutoff; one binary search
  // bounds it and the ring drops it wholesale. Stamps naming the dropped
  // entries fall below head_seq_ and read as uncovered.
  std::size_t lo = 0;
  std::size_t hi = log_len_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (LogAt(mid).at < cutoff) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  DropOldest(lo);
  return lo;
}

// ---------------------------------------------------------------------------
// AddressSpace
// ---------------------------------------------------------------------------

AddressSpace::AddressSpace(int id, Machine* machine, double zram_ratio)
    : id_(id), machine_(machine), zram_ratio_(zram_ratio) {
  machine_->RegisterSpace(this);
}

AddressSpace::~AddressSpace() {
  for (const Vma& vma : vmas_) ReleaseVma(vma);
  machine_->UnregisterSpace(this);
}

template <typename Fn>
void AddressSpace::ForEachVmaSpan(Addr start, Addr end, Fn&& fn) {
  // The interval index gives the first VMA ending above `start`; the
  // overlapping ones follow it in address order.
  for (std::size_t v = static_cast<std::size_t>(
           std::upper_bound(vma_ends_.begin(), vma_ends_.end(), start) -
           vma_ends_.begin());
       v < vmas_.size() && vma_starts_[v] < end; ++v) {
    Vma& vma = vmas_[v];
    if (!fn(vma, std::max(start, vma.start()), std::min(end, vma.end()))) {
      return;
    }
  }
}

void AddressSpace::ReleaseVma(const Vma& vma) {
  // Frames uncharge by word-popcount; swap slots release per page (the
  // device's stored-bytes accounting is floating point and must see the
  // same per-page sequence the evictions produced).
  const std::uint64_t* present = vma.plane(PageBit::kPresent);
  const std::uint64_t* swapped = vma.plane(PageBit::kSwapped);
  const std::uint64_t* bloat = vma.plane(PageBit::kHugeBloat);
  ForEachWord(0, vma.page_count(), [&](std::size_t w, std::uint64_t,
                                       std::size_t base) {
    const std::size_t word_end = std::min(base + 64, vma.page_count());
    const std::uint64_t count = Popcount(present[w]);
    machine_->UnchargeFrames(count);
    resident_pages_ -= count;
    if (machine_->tiered()) {
      ForEachSetBit(present, base, word_end, [&](std::size_t i) {
        machine_->UnchargeTier(vma.TierAt(i));
        return true;
      });
    }
    bloat_pages_ -= Popcount(bloat[w]);
    ForEachSetBit(swapped, base, word_end, [&](std::size_t) {
      machine_->swap().ReleasePage(zram_ratio_);
      --swapped_pages_;
      return true;
    });
  });
  for (std::size_t b = 0; b < vma.block_count(); ++b) {
    if (vma.BlockIsHuge(b)) --huge_blocks_;
  }
}

Vma* AddressSpace::Map(Addr start, std::uint64_t len, std::string name) {
  const Addr aligned_start = AlignDown(start, kPageSize);
  const Addr aligned_end = AlignUp(start + len, kPageSize);
  if (!DAOS_CHECK(len > 0 && aligned_end > aligned_start)) return nullptr;
  // Insert keeping vmas_ sorted by start; an overlapping request is
  // refused (mmap(MAP_FIXED_NOREPLACE) semantics), not asserted on — the
  // bounds come straight from workload/scheme inputs.
  auto it = std::lower_bound(
      vmas_.begin(), vmas_.end(), aligned_start,
      [](const Vma& v, Addr a) { return v.start() < a; });
  if (!DAOS_CHECK((it == vmas_.end() || it->start() >= aligned_end) &&
                  (it == vmas_.begin() ||
                   std::prev(it)->end() <= aligned_start))) {
    return nullptr;
  }
  it = vmas_.emplace(it, aligned_start, aligned_end, std::move(name));
  if (machine_->tiered()) it->TrackTouchTimes();
  mapped_bytes_ += it->size();
  ++layout_gen_;
  RebuildVmaIndex();
  if (tap_ != nullptr) tap_->OnMap(aligned_start, it->size(), it->name());
  return &*it;
}

void AddressSpace::UnmapVma(Addr start) {
  auto it = std::find_if(vmas_.begin(), vmas_.end(),
                         [start](const Vma& v) { return v.start() == start; });
  if (it == vmas_.end()) return;
  ReleaseVma(*it);
  mapped_bytes_ -= it->size();
  vmas_.erase(it);
  ++layout_gen_;
  RebuildVmaIndex();
  if (tap_ != nullptr) tap_->OnUnmap(start);
}

void AddressSpace::RebuildVmaIndex() {
  vma_starts_.resize(vmas_.size());
  vma_ends_.resize(vmas_.size());
  for (std::size_t i = 0; i < vmas_.size(); ++i) {
    vma_starts_[i] = vmas_[i].start();
    vma_ends_[i] = vmas_[i].end();
  }
}

Vma* AddressSpace::FindVma(Addr a) {
  // Non-overlapping VMAs sorted by start means the end array is sorted
  // too: the candidate is the first VMA whose end lies above `a`.
  const auto it = std::upper_bound(vma_ends_.begin(), vma_ends_.end(), a);
  const std::size_t i = static_cast<std::size_t>(it - vma_ends_.begin());
  if (i == vma_starts_.size() || vma_starts_[i] > a) return nullptr;
  return &vmas_[i];
}

const Vma* AddressSpace::FindVma(Addr a) const {
  const auto it = std::upper_bound(vma_ends_.begin(), vma_ends_.end(), a);
  const std::size_t i = static_cast<std::size_t>(it - vma_ends_.begin());
  if (i == vma_starts_.size() || vma_starts_[i] > a) return nullptr;
  return &vmas_[i];
}

void AddressSpace::MakeResident(Vma& vma, std::size_t page_idx, bool via_thp) {
  if (!DAOS_CHECK(!vma.TestBit(PageBit::kPresent, page_idx)))
    return;  // already resident: keep accounting
  vma.SetBit(PageBit::kPresent, page_idx);
  machine_->ChargeFrames(1);
  ++resident_pages_;
  ++vma.block_resident_[vma.BlockOfAddr(vma.AddrOfIndex(page_idx))];
  // First-fit placement: fast tier while it has room, then downward.
  if (machine_->tiered()) vma.SetTierAt(page_idx, machine_->AllocTier());
  if (via_thp && !vma.TestBit(PageBit::kEverTouched, page_idx)) {
    vma.SetBit(PageBit::kHugeBloat, page_idx);
    ++bloat_pages_;
  }
}

void AddressSpace::MakeNonResident(Vma& vma, std::size_t page_idx) {
  if (!DAOS_CHECK(vma.TestBit(PageBit::kPresent, page_idx)))
    return;  // already gone: keep accounting
  vma.ClearBit(PageBit::kPresent, page_idx);
  vma.ClearBit(PageBit::kAccessed, page_idx);
  vma.ClearBit(PageBit::kDeactivated, page_idx);
  if (vma.TestBit(PageBit::kHugeBloat, page_idx)) {
    vma.ClearBit(PageBit::kHugeBloat, page_idx);
    --bloat_pages_;
  }
  machine_->UnchargeFrames(1);
  --resident_pages_;
  --vma.block_resident_[vma.BlockOfAddr(vma.AddrOfIndex(page_idx))];
  if (machine_->tiered()) {
    machine_->UnchargeTier(vma.TierAt(page_idx));
    vma.SetTierAt(page_idx, 0);
  }
}

double AddressSpace::FaultIn(Vma& vma, std::size_t page_idx, bool write,
                             SimTimeUs now, TouchStats& st) {
  double stall_us = 0.0;
  const CostModel& costs = machine_->costs();
  if (fault::Fires(machine_->faults().alloc_frame_fail)) {
    // No free frame on first try: the allocating task enters direct
    // reclaim and stalls, then retries. If reclaim produced nothing the
    // machine latches an OOM condition for the System to act on; the
    // retry itself is allowed to proceed (the kernel's last-ditch alloc).
    ++machine_->counters().alloc_stalls;
    stall_us += kAllocStallUs;
    if (machine_->DirectReclaim(/*target_pages=*/32, now) == 0) {
      machine_->RaiseOom();
    }
  }
  if (vma.TestBit(PageBit::kSwapped, page_idx)) {
    // Major fault: bring the page back from the swap device.
    machine_->swap().ReleasePage(zram_ratio_);
    machine_->swap().CountPageIn();
    vma.ClearBit(PageBit::kSwapped, page_idx);
    --swapped_pages_;
    MakeResident(vma, page_idx, /*via_thp=*/false);
    ++major_faults_;
    ++st.major_faults;
    stall_us += static_cast<double>(machine_->swap().config().page_in_us);
  } else {
    // Minor fault: first touch of an anonymous page. Under THP `always`,
    // a fault in an empty, fully-mapped 2 MiB block allocates a whole huge
    // page (this is where the paper's "memory bloat" comes from).
    const std::size_t block = vma.BlockOfAddr(vma.AddrOfIndex(page_idx));
    if (machine_->thp_mode() == ThpMode::kAlways && vma.BlockIsFull(block) &&
        !vma.BlockIsHuge(block) && vma.BlockResident(block) == 0) {
      PromoteBlock(vma, block, now);
      stall_us += costs.minor_fault_us + costs.huge_fault_extra_us;
    } else {
      MakeResident(vma, page_idx, /*via_thp=*/false);
      stall_us += costs.minor_fault_us;
    }
    ++minor_faults_;
    ++st.minor_faults;
  }
  if (write) vma.SetBit(PageBit::kDirty, page_idx);
  return stall_us;
}

void AddressSpace::TouchPageAt(Vma& vma, std::size_t idx, bool write,
                               SimTimeUs now, TouchStats& st,
                               double& stall_us) {
  if (!vma.TestBit(PageBit::kPresent, idx))
    stall_us += FaultIn(vma, idx, write, now, st);
  vma.SetBit(PageBit::kAccessed, idx);
  vma.SetBit(PageBit::kEverTouched, idx);
  vma.ClearBit(PageBit::kDeactivated, idx);
  if (write) vma.SetBit(PageBit::kDirty, idx);
  if (vma.TestBit(PageBit::kHugeBloat, idx)) {
    vma.ClearBit(PageBit::kHugeBloat, idx);
    --bloat_pages_;
  }
  ++st.pages;
  if (vma.TestBit(PageBit::kHuge, idx)) ++st.huge_pages;
  if (machine_->tiered()) {
    // The tier is read before the stores below, which may alias the
    // planes' base and length. The touch time feeds only the tier
    // balancer's idle test; untiered machines have no touch-time array.
    const std::uint16_t tier = vma.TierAt(idx);
    vma.last_touch_ms_[idx] = ToMs(now);
    ++machine_->counters().tier_touches;
    if (tier != 0) {
      // Slow-tier access: the workload absorbs the tier's extra latency,
      // and the touch counts into the hot-cold mismatch metric.
      ++machine_->counters().tier_slow_touches;
      stall_us += machine_->TierExtraUs(tier);
    }
  }
}

void AddressSpace::TouchPages(std::span<const PageTouch> pages, SimTimeUs now,
                              TouchStats& st) {
  // No touch changes the layout (faults and direct reclaim only move
  // frames), so the last VMA found stays valid for the whole batch.
  // The batch adds up in a local, written back once: `st` may live in
  // memory that the page writes alias.
  TouchStats acc = st;
  Vma* vma = nullptr;
  for (const PageTouch& p : pages) {
    if (tap_ != nullptr) tap_->OnTouchPage(p.addr, p.write, now);
    if (vma == nullptr || !vma->Contains(p.addr)) {
      vma = FindVma(p.addr);
      if (vma == nullptr) continue;
    }
    // Each page's stall goes into the sum on its own, as a caller adding
    // up TouchPage results would; summing the batch first rounds stall_us
    // differently.
    double stall_us = 0.0;
    TouchPageAt(*vma, vma->PageIndex(p.addr), p.write, now, acc, stall_us);
    acc.stall_us += stall_us;
  }
  st = acc;
}

void AddressSpace::TouchRange(Addr start, Addr end, bool write, SimTimeUs now,
                              TouchStats& into) {
  if (end <= start) return;
  start = AlignDown(start, kPageSize);
  end = AlignUp(end, kPageSize);
  if (tap_ != nullptr) tap_->OnTouchRange(start, end, write, now);
  const bool tiered = machine_->tiered();
  // Counts go straight into `into`; the range's stall sums from 0 and
  // reaches it once.
  double stall_us = 0.0;
  ForEachVmaSpan(start, end, [&](Vma& vma, Addr lo, Addr hi) {
    vma.LogRangeTouch(lo, hi, now);
    const std::size_t range_lo = vma.PageIndex(lo);
    const std::size_t range_hi = vma.PageIndex(hi);
    std::uint64_t* present = vma.plane(PageBit::kPresent);
    std::uint64_t* accessed = vma.plane(PageBit::kAccessed);
    std::uint64_t* ever = vma.plane(PageBit::kEverTouched);
    std::uint64_t* deactivated = vma.plane(PageBit::kDeactivated);
    std::uint64_t* dirty = vma.plane(PageBit::kDirty);
    std::uint64_t* bloat = vma.plane(PageBit::kHugeBloat);
    const std::uint64_t* huge = vma.plane(PageBit::kHuge);
    for (std::size_t b = vma.BlockOfAddr(lo); b <= vma.BlockOfAddr(hi - 1);
         ++b) {
      const auto [blo, bhi] = vma.BlockPageSpan(b);
      // Clamp the block's page span to the touched range.
      const std::size_t plo = std::max(blo, range_lo);
      const std::size_t phi = std::min(bhi, range_hi);
      const std::size_t span = phi - plo;
      if (vma.BlockResident(b) == bhi - blo &&
          (bloat_pages_ == 0 || SpanBits(bloat, blo, bhi) == 0) &&
          (!tiered || !SpanHasSlowPages(vma, blo, bhi))) {
        // Fast path: residency is already correct, and the touch log
        // carries the accessed information for IsYoung(). The dirty and
        // deactivated bits change as on the word path; only words that
        // change are stored, as those bits are usually right already.
        // Blocks with slow-tier pages take the word path so each slow page
        // pays its tier's latency.
        ForEachWord(plo, phi, [&](std::size_t w, std::uint64_t m,
                                  std::size_t) {
          if ((deactivated[w] & m) != 0) deactivated[w] &= ~m;
          if (write && (dirty[w] & m) != m) dirty[w] |= m;
        });
        into.pages += span;
        if (vma.TestBit(PageBit::kHuge, blo)) into.huge_pages += span;
        if (tiered) machine_->counters().tier_touches += span;
        continue;
      }
      // Word at a time, in address order. Each word reads its present bits
      // only when its turn comes: a fault earlier in the range may have
      // promoted this block or reclaimed pages in it. A word with every page
      // present takes no fault, so the per-page steps reduce to mask
      // operations, and no page's tier can change within it. A word with a
      // missing page goes page by page.
      ForEachWord(plo, phi, [&](std::size_t w, std::uint64_t m,
                                std::size_t base) {
        if ((present[w] & m) == m) {
          accessed[w] |= m;
          ever[w] |= m;
          deactivated[w] &= ~m;
          if (write) dirty[w] |= m;
          if ((bloat[w] & m) != 0) {
            bloat_pages_ -= Popcount(bloat[w] & m);
            bloat[w] &= ~m;
          }
          // m selects exactly the word's pages in [plo, phi).
          const std::size_t lo = std::max(plo, base);
          const std::size_t hi = std::min(phi, base + 64);
          into.pages += hi - lo;
          if ((huge[w] & m) != 0) into.huge_pages += Popcount(huge[w] & m);
          if (tiered) {
            // As the per-page step: every page records its touch time, and
            // each slow page adds its tier's latency, in page order.
            std::uint32_t* last_touch = vma.last_touch_ms_.data();
            std::fill(last_touch + lo, last_touch + hi, ToMs(now));
            MachineCounters& mc = machine_->counters();
            mc.tier_touches += hi - lo;
            std::uint64_t slow = vma.SlowWord(w) & m;
            mc.tier_slow_touches += Popcount(slow);
            for (; slow != 0; slow &= slow - 1) {
              stall_us += machine_->TierExtraUs(vma.TierAt(
                  base + static_cast<std::size_t>(std::countr_zero(slow))));
            }
          }
          return;
        }
        for (std::size_t i = std::max(plo, base); i < std::min(phi, base + 64);
             ++i) {
          TouchPageAt(vma, i, write, now, into, stall_us);
        }
      });
    }
    return true;
  });
  into.stall_us += stall_us;
}

void AddressSpace::MkOld(Addr addr, SimTimeUs now) {
  if (Vma* vma = FindVma(addr)) vma->MkOldAt(vma->PageIndex(addr), now);
}

bool AddressSpace::IsYoung(Addr addr) const {
  const Vma* vma = FindVma(addr);
  return vma != nullptr && vma->IsYoungAt(vma->PageIndex(addr));
}

bool AddressSpace::IsResident(Addr addr) const {
  const Vma* vma = FindVma(addr);
  return vma != nullptr && vma->TestBit(PageBit::kPresent, vma->PageIndex(addr));
}

std::uint64_t AddressSpace::PageOutRange(Addr start, Addr end, SimTimeUs now,
                                         std::uint64_t* errors) {
  (void)now;
  std::uint64_t evicted = 0;
  ForEachVmaSpan(start, end, [&](Vma& vma, Addr lo, Addr hi) {
    // The kernel splits THPs before paging parts of them out; demoting also
    // frees bloat sub-pages for free.
    for (std::size_t b = vma.BlockOfAddr(lo); b <= vma.BlockOfAddr(hi - 1);
         ++b) {
      if (vma.BlockIsHuge(b)) DemoteBlock(vma, b);
    }
    // Word-at-a-time over the present plane: absent words cost one test.
    // Eviction only ever clears bits, so the per-word snapshot stays a
    // superset of the still-present pages and TryEvictPage re-checks each.
    return ForEachSetBit(
        vma.plane(PageBit::kPresent), vma.PageIndex(lo),
        vma.PageIndex(hi - 1) + 1, [&](std::size_t i) {
          const EvictOutcome outcome = TryEvictPage(vma, i);
          if (outcome == EvictOutcome::kEvicted ||
              outcome == EvictOutcome::kFreed) {
            evicted += kPageSize;
          }
          // Transient device I/O failure: this page stays resident, the
          // rest of the range is still worth trying.
          if (outcome == EvictOutcome::kWriteError && errors != nullptr) {
            ++*errors;
          }
          if (outcome != EvictOutcome::kNoSlot) return true;
          // Swap device full (or absent): nothing more can leave.
          ++machine_->counters().failed_evictions;
          return false;
        });
  });
  return evicted;
}

std::uint64_t AddressSpace::SwapInRange(Addr start, Addr end, SimTimeUs now) {
  (void)now;
  std::uint64_t bytes = 0;
  ForEachVmaSpan(start, end, [&](Vma& vma, Addr lo, Addr hi) {
    return ForEachSetBit(vma.plane(PageBit::kSwapped), vma.PageIndex(lo),
                         vma.PageIndex(hi - 1) + 1, [&](std::size_t i) {
                           machine_->swap().ReleasePage(zram_ratio_);
                           machine_->swap().CountPageIn();
                           vma.ClearBit(PageBit::kSwapped, i);
                           --swapped_pages_;
                           MakeResident(vma, i, /*via_thp=*/false);
                           bytes += kPageSize;
                           return true;
                         });
  });
  return bytes;
}

std::uint64_t AddressSpace::DeactivateRange(Addr start, Addr end) {
  std::uint64_t bytes = 0;
  ForEachVmaSpan(start, end, [&](Vma& vma, Addr lo, Addr hi) {
    // The whole sweep is three word-ops per 64 pages: resident non-huge
    // pages gain the deactivated bit (re-marking already-deactivated pages
    // counts toward the returned bytes).
    const std::uint64_t* present = vma.plane(PageBit::kPresent);
    const std::uint64_t* huge = vma.plane(PageBit::kHuge);
    std::uint64_t* deact = vma.plane(PageBit::kDeactivated);
    ForEachWord(vma.PageIndex(lo), vma.PageIndex(hi - 1) + 1,
                [&](std::size_t w, std::uint64_t mask, std::size_t) {
                  const std::uint64_t cand = present[w] & ~huge[w] & mask;
                  deact[w] |= cand;
                  bytes += Popcount(cand) * kPageSize;
                });
    return true;
  });
  return bytes;
}

std::uint64_t AddressSpace::PromoteRange(Addr start, Addr end, SimTimeUs now,
                                         std::uint64_t* errors) {
  std::uint64_t bytes = 0;
  ForEachVmaSpan(start, end, [&](Vma& vma, Addr lo, Addr hi) {
    for (std::size_t b = vma.BlockOfAddr(lo); b <= vma.BlockOfAddr(hi - 1);
         ++b) {
      // Promote blocks at least half-covered by the requested range; DAMON
      // region bounds are arbitrary while huge pages are 2 MiB aligned.
      const Addr bstart =
          AlignDown(vma.start(), kHugePageSize) +
          (static_cast<Addr>(b) << kHugePageShift);
      const Addr overlap = std::min(hi, bstart + kHugePageSize) -
                           std::max(lo, bstart);
      if (overlap * 2 < kHugePageSize) continue;
      bytes += PromoteBlock(vma, b, now, errors);
    }
    return true;
  });
  return bytes;
}

std::uint64_t AddressSpace::DemoteRange(Addr start, Addr end) {
  std::uint64_t freed = 0;
  ForEachVmaSpan(start, end, [&](Vma& vma, Addr lo, Addr hi) {
    for (std::size_t b = vma.BlockOfAddr(lo); b <= vma.BlockOfAddr(hi - 1);
         ++b) {
      freed += DemoteBlock(vma, b);
    }
    return true;
  });
  return freed;
}

bool AddressSpace::MigratePage(Vma& vma, std::size_t page_idx,
                               std::uint16_t to_tier, std::uint64_t* errors) {
  if (fault::Fires(machine_->faults().tier_migrate_fail)) {
    // Failed migration (alloc failure / raced with unmap in a real kernel):
    // the page stays in its source tier, the caller's scheme stats count
    // the error and the engine's backoff machinery reacts to it.
    ++machine_->counters().tier_migrate_fails;
    if (errors != nullptr) ++*errors;
    return false;
  }
  machine_->MoveTierPage(vma.TierAt(page_idx), to_tier);
  vma.SetTierAt(page_idx, to_tier);
  if (to_tier == 0) {
    ++machine_->counters().tier_promoted_pages;
  } else {
    ++machine_->counters().tier_demoted_pages;
  }
  return true;
}

std::uint64_t AddressSpace::MigrateRange(Addr start, Addr end, SimTimeUs now,
                                         bool promote, std::uint64_t* errors) {
  (void)now;
  if (!machine_->tiered()) return 0;  // disarmed: a single branch
  std::uint64_t bytes = 0;
  ForEachVmaSpan(start, end, [&](Vma& vma, Addr lo, Addr hi) {
    // Huge mappings stay put: migrating a 2 MiB block piecemeal would
    // split it, and the kernel's migrate path works on base pages. The
    // walk visits present pages only; migration never flips present or
    // huge bits, so the word snapshot is exact.
    return ForEachSetBit(
        vma.plane(PageBit::kPresent), vma.PageIndex(lo),
        vma.PageIndex(hi - 1) + 1, [&](std::size_t i) {
          if (vma.TestBit(PageBit::kHuge, i)) return true;
          if (promote) {
            if (vma.TierAt(i) == 0) return true;
            if (!machine_->TierHasRoom(0)) {
              // Fast tier full: the rest of the range cannot promote
              // either. A paired MIGRATE_COLD scheme is what makes room.
              ++machine_->counters().tier_promote_blocked;
              return false;
            }
            if (!MigratePage(vma, i, 0, errors)) return true;
          } else {
            // MIGRATE_COLD evacuates the fast tier only — its job is
            // making room for promotions. Pages already below tier 0 age
            // out through the tiered kswapd instead; demoting them again
            // would just churn the elastic bottom tier into swap.
            if (vma.TierAt(i) != 0) return true;
            const std::uint16_t to = machine_->PickDemotionTier(0);
            if (!MigratePage(vma, i, to, errors)) return true;
          }
          bytes += kPageSize;
          return true;
        });
  });
  return bytes;
}

std::uint64_t AddressSpace::TierDemoteScan(std::uint16_t from_tier,
                                           std::uint64_t* budget,
                                           std::uint64_t max_demote,
                                           SimTimeUs now) {
  if (!machine_->tiered() || vmas_.empty()) return 0;
  if (from_tier >= kMaxTiers) return 0;
  std::size_t& vma_cursor = tier_vma_cursor_[from_tier];
  std::size_t& page_cursor = tier_page_cursor_[from_tier];
  const SimTimeUs idle_cutoff = now > kTierIdleUs ? now - kTierIdleUs : 0;
  std::uint64_t demoted = 0;
  // Layout changes may have invalidated the cursor; restart cheaply.
  if (vma_cursor >= vmas_.size()) {
    vma_cursor = 0;
    page_cursor = 0;
  }
  std::size_t wraps = 0;
  while (*budget > 0 && demoted < max_demote && wraps <= vmas_.size()) {
    Vma& vma = vmas_[vma_cursor];
    if (page_cursor >= vma.page_count()) {
      page_cursor = 0;
      vma_cursor = (vma_cursor + 1) % vmas_.size();
      ++wraps;
      continue;
    }
    std::size_t idx = 0;
    if (!ClockStep(vma, page_cursor, *budget, idx)) continue;
    if (vma.TierAt(idx) != from_tier) continue;
    // CLOCK second chance: an up accessed bit buys one round — the scan
    // clears it (kswapd-style page aging; nothing else ages PTEs when no
    // monitor is attached) and the page only demotes if still idle when the
    // cursor comes back. A direct touch or a logged sweep inside the idle
    // horizon protects it the same way.
    if (vma.TestBit(PageBit::kAccessed, idx)) {
      vma.MkOldAt(idx, now);
      continue;
    }
    if (static_cast<SimTimeUs>(vma.last_touch_ms_[idx]) * 1000 >=
            idle_cutoff &&
        idle_cutoff > 0) {
      continue;
    }
    if (vma.LogCoversSince(vma.AddrOfIndex(idx), idle_cutoff)) continue;
    const std::uint16_t to = machine_->PickDemotionTier(from_tier);
    if (MigratePage(vma, idx, to, nullptr)) ++demoted;
  }
  return demoted;
}

std::uint64_t AddressSpace::PromoteBlock(Vma& vma, std::size_t block,
                                         SimTimeUs now,
                                         std::uint64_t* errors) {
  if (block >= vma.block_count()) return 0;
  if (vma.BlockIsHuge(block) || !vma.BlockIsFull(block)) return 0;
  if (fault::Fires(machine_->faults().thp_collapse_fail)) {
    // Collapse failed (allocation failure / raced with reclaim in a real
    // kernel): the block stays 4 KiB-mapped and will be retried by a later
    // scan or scheme pass.
    ++machine_->counters().thp_collapse_errors;
    if (errors != nullptr) ++*errors;
    return 0;
  }
  const auto [plo, phi] = vma.BlockPageSpan(block);
  std::uint64_t newly_resident = 0;
  for (std::size_t i = plo; i < phi; ++i) {
    if (vma.TestBit(PageBit::kSwapped, i)) {
      machine_->swap().ReleasePage(zram_ratio_);
      vma.ClearBit(PageBit::kSwapped, i);
      --swapped_pages_;
    }
    if (!vma.TestBit(PageBit::kPresent, i)) {
      MakeResident(vma, i, /*via_thp=*/true);
      newly_resident += kPageSize;
    }
    if (machine_->tiered()) {
      vma.last_touch_ms_[i] = std::max(vma.last_touch_ms_[i], ToMs(now));
    }
  }
  // The huge bits flip 64 at a time — a 2 MiB collapse is eight word-ORs.
  std::uint64_t* huge = vma.plane(PageBit::kHuge);
  ForEachWord(plo, phi, [&](std::size_t w, std::uint64_t mask, std::size_t) {
    huge[w] |= mask;
  });
  ++huge_blocks_;
  return newly_resident;
}

std::uint64_t AddressSpace::DemoteBlock(Vma& vma, std::size_t block) {
  if (block >= vma.block_count()) return 0;
  if (!vma.BlockIsHuge(block)) return 0;
  const auto [plo, phi] = vma.BlockPageSpan(block);
  std::uint64_t freed = 0;
  // Splitting clears up to 512 huge bits with word-ORs, then frees the
  // bloat pages (never-touched sub-pages) word at a time.
  std::uint64_t* huge = vma.plane(PageBit::kHuge);
  ForEachWord(plo, phi, [&](std::size_t w, std::uint64_t mask, std::size_t) {
    huge[w] &= ~mask;
  });
  ForEachSetBit(vma.plane(PageBit::kHugeBloat), plo, phi, [&](std::size_t i) {
    // This sub-page only exists because of the huge allocation; splitting
    // lets the kernel hand it back — this is the bloat ethp removes.
    if (!vma.TestBit(PageBit::kEverTouched, i)) {
      MakeNonResident(vma, i);
      freed += kPageSize;
    }
    return true;
  });
  --huge_blocks_;
  return freed;
}

AddressSpace::EvictOutcome AddressSpace::TryEvictPage(Vma& vma,
                                                      std::size_t page_idx) {
  if (!vma.TestBit(PageBit::kPresent, page_idx) ||
      vma.TestBit(PageBit::kHuge, page_idx)) {
    return EvictOutcome::kNotEvictable;
  }
  if (!vma.TestBit(PageBit::kEverTouched, page_idx)) {
    // Pure bloat page: no content worth swapping, just free it.
    MakeNonResident(vma, page_idx);
    return EvictOutcome::kFreed;
  }
  if (fault::Fires(machine_->faults().swap_write_error)) {
    // Transient write-back failure: the kernel keeps the page (still dirty,
    // still mapped) and reclaim moves on to another victim.
    ++machine_->counters().swap_write_errors;
    return EvictOutcome::kWriteError;
  }
  if (fault::Fires(machine_->faults().swap_slot_exhausted)) {
    // Injected device-full condition: same degradation as a truly full
    // device, without needing a tiny swap config in tests.
    return EvictOutcome::kNoSlot;
  }
  if (!machine_->swap().StorePage(zram_ratio_)) return EvictOutcome::kNoSlot;
  if (vma.TestBit(PageBit::kDirty, page_idx)) {
    ++dirty_evictions_;
  } else {
    ++clean_evictions_;
  }
  MakeNonResident(vma, page_idx);
  vma.SetBit(PageBit::kSwapped, page_idx);
  vma.ClearBit(PageBit::kDirty, page_idx);
  ++swapped_pages_;
  return EvictOutcome::kEvicted;
}

std::uint64_t AddressSpace::MaintainLogs(SimTimeUs now) {
  std::uint64_t dropped = 0;
  for (Vma& vma : vmas_) dropped += vma.GcLog(now, kLogHorizonUs);
  return dropped;
}

}  // namespace daos::sim
