#include "damon/primitives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace daos::damon {
namespace {

sim::MachineSpec Spec() { return sim::MachineSpec{"t", 4, 3.0, 4 * GiB}; }

// The batch calls on one region sampling `a`: the per-address view.
void MkOld(Primitives& prim, Addr a, SimTimeUs now) {
  const Region r{a, a + kPageSize, 0, 0, 0, a};
  prim.PrepareAccessChecks({&r, 1}, now);
}

bool IsYoung(const Primitives& prim, Addr a) {
  Region r{a, a + kPageSize, 0, 0, 0, a};
  prim.CheckAccesses({&r, 1}, 1);
  return r.nr_accesses == 1;
}

TEST(VaddrPrimitivesTest, ThreeRegionsExcludeBigGaps) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  // heap ... huge gap ... mmap ... huge gap ... stack (a realistic layout).
  space.Map(0x10000000, 64 * MiB, "heap");
  space.Map(0x7f0000000000, 16 * MiB, "mmap");
  space.Map(0x7ffff0000000, 8 * MiB, "stack");

  VaddrPrimitives prim(&space);
  const auto ranges = prim.TargetRanges();
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].start, 0x10000000u);
  EXPECT_EQ(ranges[0].end, 0x10000000u + 64 * MiB);
  EXPECT_EQ(ranges[1].start, 0x7f0000000000u);
  EXPECT_EQ(ranges[2].end, 0x7ffff0000000u + 8 * MiB);
}

TEST(VaddrPrimitivesTest, SmallGapsAreSpanned) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  // Four VMAs: three closely spaced + one far away. Only the two biggest
  // gaps separate ranges, so the close ones stay in one span.
  space.Map(0x10000000, 4 * MiB, "a");
  space.Map(0x10000000 + 5 * MiB, 4 * MiB, "b");
  space.Map(0x10000000 + 10 * MiB, 4 * MiB, "c");
  space.Map(0x7f0000000000, 4 * MiB, "far");

  VaddrPrimitives prim(&space);
  const auto ranges = prim.TargetRanges();
  // Two cut points -> at most 3 ranges; the far VMA must be separate.
  ASSERT_LE(ranges.size(), 3u);
  EXPECT_EQ(ranges.back().start, 0x7f0000000000u);
}

TEST(VaddrPrimitivesTest, EmptySpace) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  VaddrPrimitives prim(&space);
  EXPECT_TRUE(prim.TargetRanges().empty());
}

TEST(VaddrPrimitivesTest, MkOldIsYoungRoundTrip) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(0x10000000, 4 * MiB, "heap");
  sim::TouchStats st;
  space.TouchPage(0x10000000, false, 0, st);
  VaddrPrimitives prim(&space);
  EXPECT_TRUE(IsYoung(prim, 0x10000000));
  MkOld(prim, 0x10000000, 1000);
  EXPECT_FALSE(IsYoung(prim, 0x10000000));
}

TEST(VaddrPrimitivesTest, LayoutGenerationTracksMaps) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  VaddrPrimitives prim(&space);
  const auto g0 = prim.LayoutGeneration();
  space.Map(0x10000000, MiB, "heap");
  EXPECT_NE(prim.LayoutGeneration(), g0);
}

TEST(VaddrPrimitivesTest, ApplyActionDispatch) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(0x10000000, 16 * kPageSize, "heap");
  space.TouchRange(0x10000000, 0x10000000 + 16 * kPageSize, true, 0);
  VaddrPrimitives prim(&space);

  EXPECT_EQ(prim.ApplyAction(DamosAction::kStat, 0x10000000,
                             0x10000000 + 16 * kPageSize, 0),
            16 * kPageSize);
  EXPECT_EQ(prim.ApplyAction(DamosAction::kCold, 0x10000000,
                             0x10000000 + 16 * kPageSize, 0),
            16 * kPageSize);
  EXPECT_EQ(prim.ApplyAction(DamosAction::kPageout, 0x10000000,
                             0x10000000 + 16 * kPageSize, 0),
            16 * kPageSize);
  EXPECT_EQ(space.resident_pages(), 0u);
  EXPECT_EQ(prim.ApplyAction(DamosAction::kWillneed, 0x10000000,
                             0x10000000 + 16 * kPageSize, 0),
            16 * kPageSize);
  EXPECT_EQ(space.resident_pages(), 16u);
}

TEST(DamosActionNameTest, AllNamed) {
  EXPECT_EQ(DamosActionName(DamosAction::kPageout), "pageout");
  EXPECT_EQ(DamosActionName(DamosAction::kHugepage), "hugepage");
  EXPECT_EQ(DamosActionName(DamosAction::kNohugepage), "nohugepage");
  EXPECT_EQ(DamosActionName(DamosAction::kWillneed), "willneed");
  EXPECT_EQ(DamosActionName(DamosAction::kCold), "cold");
  EXPECT_EQ(DamosActionName(DamosAction::kStat), "stat");
}

class PaddrPrimitivesTest : public ::testing::Test {
 protected:
  PaddrPrimitivesTest() : machine_(Spec(), sim::SwapConfig::Zram()) {}
  sim::Machine machine_;
};

TEST_F(PaddrPrimitivesTest, PhysicalSpaceConcatenatesAllSpaces) {
  sim::AddressSpace a(1, &machine_, 3.0);
  sim::AddressSpace b(2, &machine_, 3.0);
  a.Map(0x10000000, 8 * MiB, "a-heap");
  b.Map(0x20000000, 8 * MiB, "b-heap");
  PaddrPrimitives prim(&machine_);
  const auto ranges = prim.TargetRanges();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].start, 0u);
  EXPECT_EQ(ranges[0].end, 16 * MiB);
}

TEST_F(PaddrPrimitivesTest, RmapTranslationRoundTrip) {
  sim::AddressSpace a(1, &machine_, 3.0);
  sim::AddressSpace b(2, &machine_, 3.0);
  a.Map(0x10000000, 8 * MiB, "a-heap");
  b.Map(0x20000000, 8 * MiB, "b-heap");
  // Touch only a page in the second space; its physical address is offset
  // by the first space's size.
  sim::TouchStats st;
  b.TouchPage(0x20000000 + 5 * kPageSize, false, 0, st);
  PaddrPrimitives prim(&machine_);
  const Addr phys = 8 * MiB + 5 * kPageSize;
  EXPECT_TRUE(IsYoung(prim, phys));
  MkOld(prim, phys, 1000);
  EXPECT_FALSE(IsYoung(prim, phys));
  EXPECT_FALSE(b.IsYoung(0x20000000 + 5 * kPageSize));
}

TEST_F(PaddrPrimitivesTest, LayoutGenerationChangesOnAnySpace) {
  sim::AddressSpace a(1, &machine_, 3.0);
  a.Map(0x10000000, MiB, "heap");
  PaddrPrimitives prim(&machine_);
  const auto g0 = prim.LayoutGeneration();
  sim::AddressSpace b(2, &machine_, 3.0);
  b.Map(0x20000000, MiB, "heap");
  EXPECT_NE(prim.LayoutGeneration(), g0);
}

TEST_F(PaddrPrimitivesTest, TranslationFollowsEveryLayoutChange) {
  sim::AddressSpace a(1, &machine_, 3.0);
  a.Map(0x10000000, MiB, "heap");
  PaddrPrimitives prim(&machine_);
  EXPECT_EQ(prim.TargetRanges()[0].end, MiB);
  a.Map(0x30000000, MiB, "more");  // Map in a space the table already has
  EXPECT_EQ(prim.TargetRanges()[0].end, 2 * MiB);
  {
    // A new space's mapping sits after a's, and its touch is seen there.
    sim::AddressSpace b(2, &machine_, 3.0);
    b.Map(0x20000000, MiB, "heap");
    sim::TouchStats st;
    b.TouchPage(0x20000000, false, 0, st);
    EXPECT_EQ(prim.TargetRanges()[0].end, 3 * MiB);
    EXPECT_TRUE(IsYoung(prim, 2 * MiB));
  }
  // Unregistering b drops its extent; unmapping shrinks a's.
  EXPECT_FALSE(IsYoung(prim, 2 * MiB));
  EXPECT_EQ(prim.TargetRanges()[0].end, 2 * MiB);
  a.UnmapVma(0x30000000);
  EXPECT_EQ(prim.TargetRanges()[0].end, MiB);
}

TEST_F(PaddrPrimitivesTest, ActionSpansSpaces) {
  sim::AddressSpace a(1, &machine_, 3.0);
  sim::AddressSpace b(2, &machine_, 3.0);
  a.Map(0x10000000, 4 * kPageSize, "a-heap");
  b.Map(0x20000000, 4 * kPageSize, "b-heap");
  a.TouchRange(0x10000000, 0x10000000 + 4 * kPageSize, true, 0);
  b.TouchRange(0x20000000, 0x20000000 + 4 * kPageSize, true, 0);
  PaddrPrimitives prim(&machine_);
  // Page out the whole "physical" range: both spaces drained.
  const std::uint64_t evicted =
      prim.ApplyAction(DamosAction::kPageout, 0, 8 * kPageSize, 0);
  EXPECT_EQ(evicted, 8 * kPageSize);
  EXPECT_EQ(a.resident_pages(), 0u);
  EXPECT_EQ(b.resident_pages(), 0u);
}

TEST_F(PaddrPrimitivesTest, OutOfRangeIsQuietlyIgnored) {
  sim::AddressSpace a(1, &machine_, 3.0);
  a.Map(0x10000000, kPageSize, "heap");
  PaddrPrimitives prim(&machine_);
  EXPECT_FALSE(IsYoung(prim, 1 * GiB));
  MkOld(prim, 1 * GiB, 0);  // must not crash
}

TEST_F(PaddrPrimitivesTest, PaddrChecksCostMoreThanVaddr) {
  sim::AddressSpace a(1, &machine_, 3.0);
  VaddrPrimitives va(&a, machine_.costs().monitor_check_us);
  PaddrPrimitives pa(&machine_, machine_.costs().monitor_check_paddr_us);
  EXPECT_GT(pa.CheckCostUs(), va.CheckCostUs());
}

// --- batch calls against the per-address AddressSpace reference ------------

// A seeded stream of touches, batch checks and batch arms. The batch side
// runs on `batch` spaces through `prim`; the reference applies
// AddressSpace::IsYoung/MkOld per region to identically touched `twin`
// spaces, resolving addresses with `twin_of` (nullptr: unmapped). Regions
// cover [lo, hi) with out-of-order runs and degenerate regions; some
// sampling addresses fall outside their region or outside every VMA.
class BatchTwin {
 public:
  using TwinOf = std::function<sim::AddressSpace*(Addr, Addr*)>;

  BatchTwin(Primitives& prim, TwinOf twin_of, std::uint64_t seed)
      : prim_(prim), twin_of_(std::move(twin_of)), rng_(seed) {}

  void NewRegions(Addr lo, Addr hi) {
    lo_ = lo;
    hi_ = hi;
    regions_.clear();
    Addr at = lo;
    while (at < hi) {
      const Addr end =
          std::min(hi, at + (1 + rng_.NextBounded(48)) * kPageSize);
      regions_.push_back(Region{at, end});
      if (rng_.NextBounded(8) == 0) regions_.push_back(Region{end, end});
      if (rng_.NextBounded(16) == 0) regions_.push_back(Region{end, at});
      at = end;
    }
    // Out of address order: swap a few neighbours, sometimes reverse all.
    for (int i = 0; i < 6 && regions_.size() > 1; ++i) {
      const std::size_t k = rng_.NextBounded(regions_.size() - 1);
      std::swap(regions_[k], regions_[k + 1]);
    }
    if (rng_.NextBounded(4) == 0)
      std::reverse(regions_.begin(), regions_.end());
    want_.assign(regions_.size(), 0);
  }

  void Arm(SimTimeUs now) {
    for (Region& r : regions_) {
      if (r.end <= r.start) continue;  // keeps its stale sampling address
      // One in eight draws anywhere in [lo, hi) widened by 64 pages.
      const bool wide = rng_.NextBounded(8) == 0;
      const Addr lo =
          wide ? lo_ - std::min<Addr>(lo_, 64 * kPageSize) : r.start;
      const Addr hi = wide ? hi_ + 64 * kPageSize : r.end;
      r.sampling_addr =
          lo + rng_.NextBounded((hi - lo) / kPageSize) * kPageSize;
      Addr virt = 0;
      if (sim::AddressSpace* s = twin_of_(r.sampling_addr, &virt))
        s->MkOld(virt, now);
    }
    prim_.PrepareAccessChecks(regions_, now);
  }

  // Returns the number of regions that read young, after asserting that
  // every region's count matches the reference.
  std::uint64_t Check() {
    std::uint64_t young = 0;
    for (std::size_t i = 0; i < regions_.size(); ++i) {
      Addr virt = 0;
      sim::AddressSpace* s = twin_of_(regions_[i].sampling_addr, &virt);
      if (s != nullptr && s->IsYoung(virt)) {
        ++young;
        if (want_[i] < kMaxChecks) ++want_[i];
      }
    }
    prim_.CheckAccesses(regions_, kMaxChecks);
    for (std::size_t i = 0; i < regions_.size(); ++i) {
      EXPECT_EQ(regions_[i].nr_accesses, want_[i])
          << "region " << i << " [" << regions_[i].start << ", "
          << regions_[i].end << ") sampling " << regions_[i].sampling_addr;
    }
    return young;
  }

  Rng& rng() { return rng_; }

 private:
  static constexpr std::uint32_t kMaxChecks = 4;
  Primitives& prim_;
  TwinOf twin_of_;
  Rng rng_;
  Addr lo_ = 0;
  Addr hi_ = 0;
  std::vector<Region> regions_;
  std::vector<std::uint32_t> want_;
};

// Touches both sides identically: single pages and ranges, some of which
// straddle VMA boundaries and gaps.
void TouchBoth(Rng& rng, const std::vector<sim::AddressSpace*>& batch,
               const std::vector<sim::AddressSpace*>& twin, SimTimeUs now) {
  for (int t = 0; t < 24; ++t) {
    const std::size_t k = rng.NextBounded(batch.size());
    const std::vector<sim::Vma>& vmas = batch[k]->vmas();
    if (vmas.empty()) continue;
    const sim::Vma& v = vmas[rng.NextBounded(vmas.size())];
    const Addr a = v.start() + rng.NextBounded(v.page_count()) * kPageSize;
    if (rng.NextBounded(3) == 0) {
      const Addr e = a + (1 + rng.NextBounded(96)) * kPageSize;
      batch[k]->TouchRange(a, e, false, now);
      twin[k]->TouchRange(a, e, false, now);
    } else {
      sim::TouchStats st;
      batch[k]->TouchPage(a, false, now, st);
      twin[k]->TouchPage(a, false, now, st);
    }
  }
}

void MapBoth(const std::vector<sim::AddressSpace*>& batch,
             const std::vector<sim::AddressSpace*>& twin, std::size_t k,
             Addr start, std::uint64_t len) {
  ASSERT_NE(batch[k]->Map(start, len, "v"), nullptr);
  ASSERT_NE(twin[k]->Map(start, len, "v"), nullptr);
}

TEST(BatchPrimitivesTest, VaddrMatchesPerAddressChecks) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::Machine twin_machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  sim::AddressSpace twin(1, &twin_machine, 3.0);
  const std::vector<sim::AddressSpace*> batch{&space};
  const std::vector<sim::AddressSpace*> twins{&twin};
  // Several VMAs with gaps of one page up to megabytes; odd page counts.
  constexpr Addr kBase = 0x10000000;
  MapBoth(batch, twins, 0, kBase, 65 * kPageSize);
  MapBoth(batch, twins, 0, kBase + 66 * kPageSize, kPageSize);
  MapBoth(batch, twins, 0, kBase + 80 * kPageSize, 300 * kPageSize);
  MapBoth(batch, twins, 0, kBase + 2 * MiB, 130 * kPageSize);
  MapBoth(batch, twins, 0, kBase + 4 * MiB, 64 * kPageSize);

  VaddrPrimitives prim(&space);
  BatchTwin run(
      prim,
      [&](Addr a, Addr* virt) -> sim::AddressSpace* {
        *virt = a;
        return twin.FindVma(a) != nullptr ? &twin : nullptr;
      },
      7);
  std::uint64_t young = 0;
  for (int round = 0; round < 8; ++round) {
    run.NewRegions(kBase, kBase + 4 * MiB + 80 * kPageSize);
    run.Arm(round * 10000);
    for (int step = 1; step <= 30; ++step) {
      const SimTimeUs now = round * 10000 + step * 300;
      TouchBoth(run.rng(), batch, twins, now);
      young += run.Check();
      run.Arm(now);
    }
  }
  EXPECT_GT(young, 0u);
}

TEST(BatchPrimitivesTest, PaddrMatchesPerAddressChecksAcrossLayoutChanges) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::Machine twin_machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace a(1, &machine, 3.0), b(2, &machine, 3.0),
      c(3, &machine, 3.0);
  sim::AddressSpace ta(1, &twin_machine, 3.0), tb(2, &twin_machine, 3.0),
      tc(3, &twin_machine, 3.0);
  const std::vector<sim::AddressSpace*> batch{&a, &b, &c};
  const std::vector<sim::AddressSpace*> twins{&ta, &tb, &tc};
  MapBoth(batch, twins, 0, 0x10000000, 70 * kPageSize);
  MapBoth(batch, twins, 0, 0x10100000, 33 * kPageSize);
  MapBoth(batch, twins, 1, 0x20000000, 129 * kPageSize);
  MapBoth(batch, twins, 2, 0x30000000, 64 * kPageSize);
  MapBoth(batch, twins, 2, 0x30200000, 200 * kPageSize);

  PaddrPrimitives prim(&machine);
  // Reference rmap: the physical space concatenates every twin VMA in
  // registration order.
  const auto twin_of = [&](Addr phys, Addr* virt) -> sim::AddressSpace* {
    Addr base = 0;
    for (sim::AddressSpace* s : twin_machine.spaces()) {
      for (const sim::Vma& v : s->vmas()) {
        if (phys < base + v.size()) {
          *virt = v.start() + (phys - base);
          return s;
        }
        base += v.size();
      }
    }
    return nullptr;
  };
  const auto phys_size = [&] {
    const auto ranges = prim.TargetRanges();
    return ranges.empty() ? Addr{0} : ranges[0].end;
  };
  BatchTwin run(prim, twin_of, 11);
  std::uint64_t young = 0;
  run.NewRegions(0, phys_size());
  run.Arm(0);
  // Layout changes between batches, before a check or before an arm: the
  // next batch call must rebuild the extent table first. Old regions
  // survive a change for a few steps, so some sampling addresses move to
  // other pages or fall off the end.
  const auto change_layout = [&](int step) {
    const std::size_t k = step % 3;
    if (step % 20 == 10) {
      MapBoth(batch, twins, k, 0x40000000 + step * MiB,
              (5 + step % 70) * kPageSize);
    } else if (step % 20 == 0 && batch[k]->vmas().size() > 1) {
      const Addr victim = batch[k]->vmas().front().start();
      batch[k]->UnmapVma(victim);
      twins[k]->UnmapVma(victim);
    }
  };
  for (int step = 1; step <= 240; ++step) {
    const SimTimeUs now = step * 300;
    TouchBoth(run.rng(), batch, twins, now);
    if (step % 40 < 20) change_layout(step);
    young += run.Check();
    if (step % 40 >= 20) change_layout(step);
    if (step % 20 == 15) run.NewRegions(0, phys_size());
    run.Arm(now);
  }
  EXPECT_GT(young, 0u);
}

TEST(BatchPrimitivesTest, CursorReseeksBehindIt) {
  sim::Machine machine(Spec(), sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(0x10000000, 4 * kPageSize, "a");
  space.Map(0x20000000, 4 * kPageSize, "b");
  space.Map(0x30000000, 4 * kPageSize, "c");
  sim::TouchStats st;
  for (const Addr a : {0x10000000, 0x20000000, 0x30000000})
    space.TouchPage(a + kPageSize, false, 0, st);
  space.TouchPage(0x20000000 + 2 * kPageSize, false, 0, st);
  VaddrPrimitives prim(&space);
  // Descending, then back into the first VMA, then a gap, then the last
  // VMA again; a degenerate region keeps its (young) sampling address.
  const Addr hits[] = {0x30000000, 0x20000000, 0x10000000, 0x30000000};
  std::vector<Region> regions;
  for (const Addr a : hits) regions.push_back(Region{a, a + 4 * kPageSize});
  regions.push_back(Region{0x18000000, 0x18001000});
  regions.push_back(Region{0x20000000, 0x20000000});
  for (std::size_t i = 0; i < 4; ++i)
    regions[i].sampling_addr = hits[i] + kPageSize;
  regions[4].sampling_addr = 0x18000000;
  regions[5].sampling_addr = 0x20000000 + 2 * kPageSize;
  prim.CheckAccesses(regions, 10);
  for (std::size_t i = 0; i < regions.size(); ++i)
    EXPECT_EQ(regions[i].nr_accesses, i == 4 ? 0u : 1u) << "region " << i;
  // Arming skips the degenerate region: its page stays young.
  prim.PrepareAccessChecks(regions, 1000);
  prim.CheckAccesses(regions, 10);
  for (std::size_t i = 0; i < regions.size(); ++i)
    EXPECT_EQ(regions[i].nr_accesses, i == 5 ? 2u : i == 4 ? 0u : 1u)
        << "region " << i;
}

}  // namespace
}  // namespace daos::damon
