// Differential tests for AddressSpace::TouchRange and TouchPages.
//
// TouchRange takes partly-resident blocks one 64-page bitmap word at a
// time, with mask operations for words whose pages are all present. The
// reference here is a twin AddressSpace that walks the same VMAs and blocks
// itself: it applies the fully-resident fast-path test (no bloat page and,
// on a tiered machine, no page outside tier 0, each read page by page) to
// its own state as it reaches each block, and otherwise calls TouchPage
// page by page in address order. The dirty and deactivated planes do not
// depend on that test: on a fast-path block the reference still sets or
// clears each page's bits in address order, as TouchPage would. On an
// untiered machine TouchPage runs the per-page touch step unchanged, so the
// two must agree bit for bit: every bit plane (the tier and probation planes
// included), every clear time and last-touch time, the per-block resident
// counts, the space and machine counters, the touch log (through IsYoung on
// every page after every step; each query is O(1) on the log's coverage
// stamps) and the returned TouchStats, stall_us included.
// Tiered seeds hold the same state to bit identity, but the reference sums
// a faulting slow-tier page's fault and tier latency before adding them to
// the range total, so stall_us is compared to a relative 1e-12 there.
//
// Seeded random layouts put VMA starts off 2 MiB alignment and range edges
// mid-word and mid-page, over partly-resident, huge, bloat, deactivated and
// swapped pages. Half the seeds run THP `always` (a fault promotes its block
// mid-range), half arm alloc.frame_fail (a fault runs DirectReclaim
// mid-range), and a third are tiered with a fast tier smaller than the
// layout.
//
// TouchPages' twin takes the same pages one TouchPage call at a time, on
// the same seeds. The batch must match it bit for bit, stall_us with `==`
// on tiered seeds too (the batch adds each page into the caller's total on
// its own), and the access tap must see the same event stream. Batches
// cluster in a 1 MiB window that often straddles VMA ends and gaps, and
// one page in eight lands anywhere, past the last VMA included. The same
// walk's range touches check TouchRange's accumulate form: added into a
// non-zero running total, it must equal `total += TouchRange(...)` with
// `==` on stall_us.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "sim/tier.hpp"
#include "util/rng.hpp"

namespace daos::sim {
namespace {

constexpr Addr kBase = 64 * kHugePageSize;

// The page-by-page reference walk of [start, end).
TouchStats ReferenceTouchRange(Machine& machine, AddressSpace& space,
                               Addr start, Addr end, bool write,
                               SimTimeUs now) {
  TouchStats st;
  if (end <= start) return st;
  start = AlignDown(start, kPageSize);
  end = AlignUp(end, kPageSize);
  for (Vma& vma : space.vmas()) {
    if (vma.end() <= start || vma.start() >= end) continue;
    const Addr lo = std::max(start, vma.start());
    const Addr hi = std::min(end, vma.end());
    vma.LogRangeTouch(lo, hi, now);
    for (std::size_t b = vma.BlockOfAddr(lo); b <= vma.BlockOfAddr(hi - 1);
         ++b) {
      const auto [blo, bhi] = vma.BlockPageSpan(b);
      const std::size_t plo = std::max(blo, vma.PageIndex(lo));
      const std::size_t phi = std::min(bhi, vma.PageIndex(hi));
      bool bloat = false;
      bool slow = false;
      for (std::size_t i = blo; i < bhi; ++i) {
        bloat = bloat || vma.TestBit(PageBit::kHugeBloat, i);
        slow = slow || vma.TierAt(i) != 0;
      }
      const bool fast = vma.BlockResident(b) == bhi - blo && !bloat && !slow;
      if (fast) {
        st.pages += phi - plo;
        if (vma.BlockIsHuge(b)) st.huge_pages += phi - plo;
        if (machine.tiered()) machine.counters().tier_touches += phi - plo;
      }
      for (std::size_t i = plo; i < phi; ++i) {
        if (!fast) {
          space.TouchPage(vma.AddrOfIndex(i), write, now, st);
          continue;
        }
        // Every touched page is dirtied by a write and loses its COLD
        // mark, whichever path its block takes.
        if (write) vma.SetBit(PageBit::kDirty, i);
        vma.ClearBit(PageBit::kDeactivated, i);
      }
    }
  }
  return st;
}

struct Config {
  std::uint64_t seed = 1;
  bool thp_always = false;
  bool alloc_fail = false;
  bool tiered = false;
};

// One machine with one address space, wired to its own fault plane so the
// twins draw identical fault schedules.
struct Twin {
  explicit Twin(const Config& cfg)
      : plane(cfg.seed),
        machine(MachineSpec{"test", 4, 3.0, 1 * GiB},
                SwapConfig::Zram(64 * MiB)),
        space(1, &machine, 3.0) {
    if (cfg.thp_always) machine.set_thp_mode(ThpMode::kAlways);
    if (cfg.alloc_fail)
      plane.Arm(fault::kAllocFrameFail, fault::FaultSpec{0.05, 0, 0});
    machine.SetFaultPlane(&plane);
    if (cfg.tiered) {
      TierGeometry tiers;
      std::string error;
      if (!ParseTierGeometry("dram 4M\ncxl 1G lat=0.6", &tiers, &error) ||
          !machine.SetTierGeometry(tiers, &error))
        ADD_FAILURE() << error;
    }
  }
  fault::FaultPlane plane;
  Machine machine;
  AddressSpace space;
};

std::string DiffStats(const TouchStats& a, const TouchStats& b,
                      bool exact_stall) {
  if (a.pages != b.pages) return "TouchStats.pages";
  if (a.minor_faults != b.minor_faults) return "TouchStats.minor_faults";
  if (a.major_faults != b.major_faults) return "TouchStats.major_faults";
  if (a.huge_pages != b.huge_pages) return "TouchStats.huge_pages";
  if (exact_stall ? a.stall_us != b.stall_us
                  : std::abs(a.stall_us - b.stall_us) >
                        1e-12 * std::max(1.0, std::abs(a.stall_us)))
    return "TouchStats.stall_us";
  return "";
}

std::string DiffVma(const Vma& a, const Vma& b, const AddressSpace& sa,
                    const AddressSpace& sb) {
  if (a.start() != b.start() || a.end() != b.end()) return "vma bounds";
  for (std::size_t p = 0; p < kPageBitPlanes; ++p) {
    const auto bit = static_cast<PageBit>(p);
    if (!std::equal(a.plane(bit), a.plane(bit) + a.word_count(), b.plane(bit)))
      return "bit plane " + std::to_string(p);
  }
  for (std::size_t i = 0; i < a.page_count(); ++i) {
    const PageView pa = a.PageAt(a.AddrOfIndex(i));
    const PageView pb = b.PageAt(b.AddrOfIndex(i));
    if (pa.acc_cleared_ms != pb.acc_cleared_ms)
      return "clear time of page " + std::to_string(i);
    if (pa.last_touch_ms != pb.last_touch_ms)
      return "last-touch time of page " + std::to_string(i);
    if (sa.IsYoung(a.AddrOfIndex(i)) != sb.IsYoung(b.AddrOfIndex(i)))
      return "IsYoung of page " + std::to_string(i);
  }
  for (std::size_t k = 0; k < a.block_count(); ++k) {
    if (a.BlockResident(k) != b.BlockResident(k))
      return "resident count of block " + std::to_string(k);
  }
  if (a.log_size() != b.log_size()) return "log size";
  return "";
}

// First difference between the twins' observable state, or "".
std::string Diff(Twin& a, Twin& b) {
  const AddressSpace& sa = a.space;
  const AddressSpace& sb = b.space;
  if (sa.vmas().size() != sb.vmas().size()) return "vma count";
  for (std::size_t v = 0; v < sa.vmas().size(); ++v) {
    const std::string d = DiffVma(sa.vmas()[v], sb.vmas()[v], sa, sb);
    if (!d.empty()) return "vma " + std::to_string(v) + ": " + d;
  }
  if (sa.resident_pages() != sb.resident_pages()) return "resident_pages";
  if (sa.swapped_pages() != sb.swapped_pages()) return "swapped_pages";
  if (sa.mapped_bytes() != sb.mapped_bytes()) return "mapped_bytes";
  if (sa.major_faults() != sb.major_faults()) return "major_faults";
  if (sa.minor_faults() != sb.minor_faults()) return "minor_faults";
  if (sa.bloat_pages() != sb.bloat_pages()) return "bloat_pages";
  if (sa.huge_blocks() != sb.huge_blocks()) return "huge_blocks";
  if (sa.dirty_evictions() != sb.dirty_evictions()) return "dirty_evictions";
  if (sa.clean_evictions() != sb.clean_evictions()) return "clean_evictions";

  const MachineCounters& ca = a.machine.counters();
  const MachineCounters& cb = b.machine.counters();
  const std::uint64_t MachineCounters::*fields[] = {
      &MachineCounters::reclaimed_pages,
      &MachineCounters::reclaim_scans,
      &MachineCounters::failed_evictions,
      &MachineCounters::khugepaged_collapses,
      &MachineCounters::overcommit_events,
      &MachineCounters::swap_write_errors,
      &MachineCounters::alloc_stalls,
      &MachineCounters::thp_collapse_errors,
      &MachineCounters::khugepaged_backoffs,
      &MachineCounters::tier_promoted_pages,
      &MachineCounters::tier_demoted_pages,
      &MachineCounters::tier_migrate_fails,
      &MachineCounters::tier_promote_blocked,
      &MachineCounters::tier_touches,
      &MachineCounters::tier_slow_touches,
  };
  for (std::size_t f = 0; f < std::size(fields); ++f) {
    if (ca.*fields[f] != cb.*fields[f])
      return "machine counter " + std::to_string(f);
  }
  if (a.machine.used_frames() != b.machine.used_frames()) return "used_frames";
  if (a.machine.swap().used_slots() != b.machine.swap().used_slots())
    return "swap used_slots";
  if (a.machine.swap().stored_bytes() != b.machine.swap().stored_bytes())
    return "swap stored_bytes";
  if (a.machine.swap().total_ins() != b.machine.swap().total_ins())
    return "swap total_ins";
  if (a.machine.swap().total_outs() != b.machine.swap().total_outs())
    return "swap total_outs";
  if (a.machine.TakeOomPending() != b.machine.TakeOomPending())
    return "oom pending";
  return "";
}

Config ConfigFor(int seed) {
  Config cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.thp_always = seed % 2 == 0;
  cfg.alloc_fail = seed % 4 >= 2;
  cfg.tiered = seed > 16;
  return cfg;
}

// Maps the same 2-4 VMAs into both twins, each starting a random number of
// pages past a 2 MiB boundary and 2-8 MiB long, so first and last blocks
// are usually partial. Returns the layout's length from kBase, gaps and
// all.
std::uint64_t MapLayout(Rng& rng, Twin& a, Twin& b) {
  Addr at = kBase;
  const std::size_t nvmas = 2 + rng.NextBounded(3);
  for (std::size_t v = 0; v < nvmas; ++v) {
    const Addr start = at + rng.NextBounded(kPagesPerHuge) * kPageSize;
    const std::uint64_t len =
        (1 + rng.NextBounded(3)) * kHugePageSize +
        rng.NextBounded(kPagesPerHuge) * kPageSize + kPageSize;
    EXPECT_NE(a.space.Map(start, len, "v"), nullptr);
    EXPECT_NE(b.space.Map(start, len, "v"), nullptr);
    at = AlignUp(start + len, kHugePageSize) +
         rng.NextBounded(2) * kHugePageSize;
  }
  return at - kBase;
}

class TouchRangeDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(TouchRangeDifferentialTest, MatchesPageByPageReference) {
  const Config cfg = ConfigFor(GetParam());
  Twin real(cfg);
  Twin ref(cfg);
  Rng rng(cfg.seed);
  const std::uint64_t span = MapLayout(rng, real, ref);

  // A random byte range over the layout, gaps and all; 1 in 4 is at most
  // 64 pages long, so both edges often land inside one block.
  auto pick = [&](Addr* lo, Addr* hi) {
    const Addr a = kBase + rng.NextBounded(span);
    const std::uint64_t len = rng.NextBounded(4) == 0
                                  ? rng.NextBounded(64 * kPageSize)
                                  : rng.NextBounded(span / 2);
    *lo = a;
    *hi = std::min<Addr>(a + len + 1, kBase + span);
  };

  std::uint64_t range_touches = 0;
  TouchStats shaped;  // the shaping touches' stats, not compared
  constexpr int kSteps = 400;
  for (int step = 0; step < kSteps; ++step) {
    const SimTimeUs now = static_cast<SimTimeUs>(step) * 5 * kUsPerMs;
    Addr lo = 0;
    Addr hi = 0;
    pick(&lo, &hi);
    const bool write = rng.NextBool(0.3);
    const std::uint64_t op = rng.NextBounded(12);
    if (op < 5) {
      const TouchStats got = real.space.TouchRange(lo, hi, write, now);
      const TouchStats want =
          ReferenceTouchRange(ref.machine, ref.space, lo, hi, write, now);
      ASSERT_EQ(DiffStats(got, want, !cfg.tiered), "") << "step " << step;
      ++range_touches;
    } else {
      // Shape the state both twins will be touched over next.
      const Addr page = AlignDown(lo, kPageSize);
      for (AddressSpace* s : {&real.space, &ref.space}) {
        switch (op) {
          case 5:
          case 6:
            s->TouchPage(page, write, now, shaped);
            break;
          case 7:
            s->PageOutRange(lo, hi, now);
            break;
          case 8:
            s->PromoteRange(lo, hi, now);
            break;
          case 9:
            s->DemoteRange(lo, hi);
            break;
          case 10:
            s->DeactivateRange(lo, hi);
            break;
          default:
            for (Addr a = page; a < hi; a += 7 * kPageSize) s->MkOld(a, now);
            break;
        }
      }
    }
    ASSERT_EQ(Diff(real, ref), "") << "step " << step << " op " << op;
  }

  // The walk must have reached the paths it exists to compare.
  EXPECT_GT(range_touches, 100u);
  EXPECT_GT(real.space.minor_faults(), 0u);
  EXPECT_GT(real.space.major_faults(), 0u);
  EXPECT_GT(real.machine.swap().total_outs(), 0u);
  if (cfg.alloc_fail) {
    EXPECT_GT(real.machine.counters().alloc_stalls, 0u);
    EXPECT_GT(real.machine.counters().reclaimed_pages, 0u);
  }
  if (cfg.tiered) {
    EXPECT_GT(real.machine.counters().tier_slow_touches, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TouchRangeDifferentialTest,
                         ::testing::Range(1, 25));

// A range touch over a fully resident block takes the O(1) fast path, and
// must still dirty the pages it writes and clear their COLD mark, as the
// same touch over a block with a missing page does.
TEST(TouchRangeFastPath, WritesDirtyAndClearsDeactivated) {
  Twin t(Config{});
  Vma* vma = t.space.Map(kBase, kHugePageSize, "v");
  ASSERT_NE(vma, nullptr);
  t.space.TouchRange(kBase, kBase + kHugePageSize, false, 0);
  t.space.DeactivateRange(kBase, kBase + kHugePageSize);
  ASSERT_EQ(vma->BlockResident(0), kPagesPerHuge);
  constexpr std::size_t kLo = 5;
  constexpr std::size_t kHi = 400;
  const TouchStats st = t.space.TouchRange(vma->AddrOfIndex(kLo),
                                           vma->AddrOfIndex(kHi), true, 1000);
  EXPECT_EQ(st.pages, kHi - kLo);
  EXPECT_EQ(st.minor_faults, 0u);
  for (std::size_t i = 0; i < kPagesPerHuge; ++i) {
    const bool in = i >= kLo && i < kHi;
    EXPECT_EQ(vma->TestBit(PageBit::kDirty, i), in) << "page " << i;
    EXPECT_EQ(vma->TestBit(PageBit::kDeactivated, i), !in) << "page " << i;
  }
}

// The access tap's event stream, one entry per notification.
class EventLog final : public AccessTap {
 public:
  struct Event {
    char kind = 0;  // 'm'ap, 'u'nmap, 'p'age, 'r'ange
    Addr a = 0;
    Addr b = 0;
    bool write = false;
    SimTimeUs now = 0;
    std::string name;
    bool operator==(const Event&) const = default;
  };
  void OnMap(Addr start, std::uint64_t len, std::string_view name) override {
    Add('m', start, len, false, 0, name);
  }
  void OnUnmap(Addr start) override { Add('u', start, 0, false, 0); }
  void OnTouchPage(Addr addr, bool write, SimTimeUs now) override {
    Add('p', addr, 0, write, now);
  }
  void OnTouchRange(Addr start, Addr end, bool write, SimTimeUs now) override {
    Add('r', start, end, write, now);
  }
  std::vector<Event> events;

 private:
  void Add(char kind, Addr a, Addr b, bool write, SimTimeUs now,
           std::string_view name = {}) {
    events.push_back(Event{kind, a, b, write, now, std::string(name)});
  }
};

class TouchPagesTwinTest : public ::testing::TestWithParam<int> {};

TEST_P(TouchPagesTwinTest, MatchesOneTouchPageAtATime) {
  const Config cfg = ConfigFor(GetParam());
  Twin batch(cfg);
  Twin single(cfg);
  EventLog batch_log;
  EventLog single_log;
  batch.space.SetAccessTap(&batch_log);
  single.space.SetAccessTap(&single_log);
  Rng rng(cfg.seed);
  const std::uint64_t span = MapLayout(rng, batch, single);
  const std::uint64_t span_pages = span / kPageSize;

  // Running totals: each batch adds into what the earlier steps left.
  TouchStats batch_total;
  TouchStats single_total;
  // Range touches: the batch twin accumulates into its total, the single
  // twin adds up by-value results; both totals start non-zero.
  const TouchStats range_start{7, 3, 2, 5, 0.1};
  TouchStats batch_range_total = range_start;
  TouchStats single_range_total = range_start;
  std::vector<PageTouch> pages;
  std::uint64_t batches = 0;
  std::uint64_t crossing_batches = 0;
  std::uint64_t outside_pages = 0;
  constexpr int kSteps = 400;
  for (int step = 0; step < kSteps; ++step) {
    const SimTimeUs now = static_cast<SimTimeUs>(step) * 5 * kUsPerMs;
    const std::uint64_t op = rng.NextBounded(12);
    const Addr lo = kBase + rng.NextBounded(span_pages) * kPageSize;
    const Addr hi =
        std::min<Addr>(lo + rng.NextBounded(span / 2) + 1, kBase + span);
    const bool write = rng.NextBool(0.3);
    if (op < 5) {
      pages.clear();
      const std::size_t n = 1 + rng.NextBounded(96);
      for (std::size_t i = 0; i < n; ++i) {
        const Addr a = rng.NextBounded(8) == 0
                           ? kBase + rng.NextBounded(span_pages + 1024) *
                                         kPageSize
                           : lo + rng.NextBounded(256) * kPageSize;
        pages.push_back({a, rng.NextBool(0.3)});
      }
      const Vma* first = batch.space.FindVma(pages.front().addr);
      bool crossing = false;
      for (const PageTouch& p : pages) {
        const Vma* v = batch.space.FindVma(p.addr);
        if (v == nullptr) ++outside_pages;
        crossing = crossing || (v != nullptr && first != nullptr && v != first);
      }
      if (crossing) ++crossing_batches;
      ++batches;
      batch.space.TouchPages(pages, now, batch_total);
      for (const PageTouch& p : pages)
        single.space.TouchPage(p.addr, p.write, now, single_total);
      ASSERT_EQ(DiffStats(batch_total, single_total, /*exact_stall=*/true), "")
          << "step " << step;
    } else {
      // Shape the state the next batches land on: logged range touches,
      // evictions, THP promotion and splits, deactivation, cleared bits.
      for (AddressSpace* s : {&batch.space, &single.space}) {
        switch (op) {
          case 5:
          case 6:
            if (s == &batch.space) {
              s->TouchRange(lo, hi, write, now, batch_range_total);
            } else {
              single_range_total += s->TouchRange(lo, hi, write, now);
            }
            break;
          case 7:
            s->PageOutRange(lo, hi, now);
            break;
          case 8:
            s->PromoteRange(lo, hi, now);
            break;
          case 9:
            s->DemoteRange(lo, hi);
            break;
          case 10:
            s->DeactivateRange(lo, hi);
            break;
          default:
            for (Addr a = lo; a < hi; a += 7 * kPageSize) s->MkOld(a, now);
            break;
        }
      }
      ASSERT_EQ(DiffStats(batch_range_total, single_range_total,
                          /*exact_stall=*/true),
                "")
          << "step " << step;
    }
    ASSERT_EQ(Diff(batch, single), "") << "step " << step << " op " << op;
    ASSERT_TRUE(batch_log.events == single_log.events) << "step " << step;
  }

  // The walk must have reached the cases the batch has to get right.
  EXPECT_GT(batches, 100u);
  EXPECT_GT(crossing_batches, 10u);
  EXPECT_GT(outside_pages, 0u);
  EXPECT_GT(batch.space.minor_faults(), 0u);
  EXPECT_GT(batch.space.major_faults(), 0u);
  if (cfg.alloc_fail) {
    EXPECT_GT(batch.machine.counters().alloc_stalls, 0u);
  }
  if (cfg.tiered) {
    EXPECT_GT(batch.machine.counters().tier_slow_touches, 0u);
  }
  // The range totals moved past their start, stalls included.
  EXPECT_GT(batch_range_total.pages, range_start.pages);
  EXPECT_GT(batch_range_total.stall_us, range_start.stall_us);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TouchPagesTwinTest, ::testing::Range(1, 25));

// The word path counts a fully present word's touched pages from the
// clamped span instead of a popcount of its mask. Ranges that start or end
// mid-word, and ones over the VMA's partial tail word, must count exactly
// the pages whose accessed bit they set.
TEST(TouchRangeWordPath, SpanPageCountMatchesMaskPopcount) {
  Twin t(Config{});
  // 300 pages from 3 pages past a block boundary: one partial block whose
  // tail word holds 44 pages. Page 0 stays absent, so the block is never
  // fully resident and every touch below takes the word path.
  constexpr std::size_t kPages = 300;
  const Addr start = kBase + 3 * kPageSize;
  Vma* vma = t.space.Map(start, kPages * kPageSize, "v");
  ASSERT_NE(vma, nullptr);
  ASSERT_EQ(vma->word_count(), 5u);
  t.space.TouchRange(start + kPageSize, start + kPages * kPageSize, true, 0);
  const std::pair<std::size_t, std::size_t> spans[] = {
      {1, 300},   {5, 70},    {64, 128},  {70, 300},  {130, 299},
      {200, 201}, {255, 257}, {256, 300}, {257, 300}, {63, 64},
  };
  const SimTimeUs now = 10 * kUsPerSec;
  for (const auto& [lo, hi] : spans) {
    for (std::size_t i = 0; i < kPages; ++i)
      vma->ClearBit(PageBit::kAccessed, i);
    const TouchStats st = t.space.TouchRange(vma->AddrOfIndex(lo),
                                             vma->AddrOfIndex(hi), false, now);
    std::uint64_t accessed = 0;
    for (std::size_t w = 0; w < vma->word_count(); ++w)
      accessed += static_cast<std::uint64_t>(
          std::popcount(vma->plane(PageBit::kAccessed)[w]));
    EXPECT_EQ(st.pages, hi - lo) << "[" << lo << ", " << hi << ")";
    EXPECT_EQ(st.pages, accessed) << "[" << lo << ", " << hi << ")";
    EXPECT_EQ(st.minor_faults, 0u) << "[" << lo << ", " << hi << ")";
  }
  EXPECT_EQ(vma->BlockResident(0), kPages - 1);
}

}  // namespace
}  // namespace daos::sim
