#include "damon/primitives.hpp"

#include <algorithm>

#include "sim/address_space.hpp"
#include "sim/machine.hpp"

namespace daos::damon {

std::string_view DamosActionName(DamosAction action) {
  switch (action) {
    case DamosAction::kWillneed:
      return "willneed";
    case DamosAction::kCold:
      return "cold";
    case DamosAction::kPageout:
      return "pageout";
    case DamosAction::kHugepage:
      return "hugepage";
    case DamosAction::kNohugepage:
      return "nohugepage";
    case DamosAction::kStat:
      return "stat";
    case DamosAction::kMigrateHot:
      return "migrate_hot";
    case DamosAction::kMigrateCold:
      return "migrate_cold";
  }
  return "?";
}

namespace {

std::uint64_t ApplyToSpace(sim::AddressSpace& space, DamosAction action,
                           Addr start, Addr end, SimTimeUs now,
                           std::uint64_t* errors) {
  switch (action) {
    case DamosAction::kWillneed:
      return space.SwapInRange(start, end, now);
    case DamosAction::kCold:
      return space.DeactivateRange(start, end);
    case DamosAction::kPageout:
      return space.PageOutRange(start, end, now, errors);
    case DamosAction::kHugepage:
      return space.PromoteRange(start, end, now, errors);
    case DamosAction::kNohugepage:
      return space.DemoteRange(start, end);
    case DamosAction::kStat:
      return end - start;  // pure accounting, no side effect
    case DamosAction::kMigrateHot:
      return space.MigrateRange(start, end, now, /*promote=*/true, errors);
    case DamosAction::kMigrateCold:
      return space.MigrateRange(start, end, now, /*promote=*/false, errors);
  }
  return 0;
}

/// Calls `fn(region, interval)` for each region, in order, whose sampling
/// address lies in one of `intervals` (sorted, disjoint, with start() and
/// end()). A forward cursor finds the interval while the addresses ascend;
/// an address behind the cursor re-seeks by binary search.
template <typename Intervals, typename R, typename Fn>
void ForEachSampled(Intervals& intervals, std::span<R> regions, Fn fn) {
  std::size_t next = 0;  // first interval ending above the last address
  for (R& r : regions) {
    const Addr a = r.sampling_addr;
    if (next > 0 && a < intervals[next - 1].end()) {
      next = static_cast<std::size_t>(
          std::upper_bound(intervals.begin(), intervals.begin() + next, a,
                           [](Addr x, const auto& e) { return x < e.end(); }) -
          intervals.begin());
    }
    while (next < intervals.size() && intervals[next].end() <= a) ++next;
    if (next < intervals.size() && intervals[next].start() <= a)
      fn(r, intervals[next]);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// VaddrPrimitives
// ---------------------------------------------------------------------------

std::vector<AddrRange> VaddrPrimitives::TargetRanges() {
  // The kernel's "three regions" heuristic: a process's virtual space has
  // two big gaps (between heap, mmap area, and stack); monitoring the gaps
  // would waste regions, so exclude the two largest gaps and return the up
  // to three spans they separate (paper §4.1 mentions exactly these gaps).
  const auto& vmas = space_->vmas();
  if (vmas.empty()) return {};

  struct Gap {
    std::uint64_t size;
    std::size_t after;  // gap sits after vmas[after]
  };
  std::vector<Gap> gaps;
  for (std::size_t i = 0; i + 1 < vmas.size(); ++i) {
    const std::uint64_t g = vmas[i + 1].start() - vmas[i].end();
    if (g > 0) gaps.push_back({g, i});
  }
  std::sort(gaps.begin(), gaps.end(),
            [](const Gap& a, const Gap& b) { return a.size > b.size; });
  // Keep only the two biggest gaps as separators.
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < gaps.size() && i < 2; ++i)
    cuts.push_back(gaps[i].after);
  std::sort(cuts.begin(), cuts.end());

  std::vector<AddrRange> ranges;
  Addr span_start = vmas.front().start();
  for (std::size_t i = 0; i < vmas.size(); ++i) {
    const bool cut_here =
        std::find(cuts.begin(), cuts.end(), i) != cuts.end();
    if (cut_here || i + 1 == vmas.size()) {
      ranges.push_back(AddrRange{span_start, vmas[i].end()});
      if (i + 1 < vmas.size()) span_start = vmas[i + 1].start();
    }
  }
  return ranges;
}

std::uint64_t VaddrPrimitives::LayoutGeneration() const {
  return space_->layout_generation();
}

void VaddrPrimitives::PrepareAccessChecks(std::span<const Region> regions,
                                          SimTimeUs now) {
  ForEachSampled(space_->vmas(), regions, [now](const Region& r, sim::Vma& v) {
    if (r.end > r.start) v.MkOldAt(v.PageIndex(r.sampling_addr), now);
  });
}

void VaddrPrimitives::CheckAccesses(std::span<Region> regions,
                                    std::uint32_t max_checks) const {
  ForEachSampled(space_->vmas(), regions, [max_checks](Region& r, sim::Vma& v) {
    if (r.nr_accesses < max_checks && v.IsYoungAt(v.PageIndex(r.sampling_addr)))
      ++r.nr_accesses;
  });
}

std::uint64_t VaddrPrimitives::ApplyAction(DamosAction action, Addr start,
                                           Addr end, SimTimeUs now,
                                           std::uint64_t* errors) {
  return ApplyToSpace(*space_, action, start, end, now, errors);
}

// ---------------------------------------------------------------------------
// PaddrPrimitives
// ---------------------------------------------------------------------------

void PaddrPrimitives::RebuildIfStale() const {
  // A change in any space's layout (or the set of spaces) invalidates the
  // synthetic physical mapping.
  const std::uint64_t gen = LayoutGeneration();
  if (gen == built_generation_) return;

  extents_.clear();
  Addr cursor = 0;
  for (sim::AddressSpace* space : machine_->spaces()) {
    for (std::size_t i = 0; i < space->vmas().size(); ++i) {
      const std::uint64_t size = space->vmas()[i].size();
      extents_.push_back(Extent{cursor, cursor + size, space, i});
      cursor += size;
    }
  }
  phys_size_ = cursor;
  built_generation_ = gen;
}

std::vector<AddrRange> PaddrPrimitives::TargetRanges() {
  RebuildIfStale();
  if (phys_size_ == 0) return {};
  return {AddrRange{0, phys_size_}};
}

std::uint64_t PaddrPrimitives::LayoutGeneration() const {
  // Fold the per-space layout generations into one value.
  std::uint64_t gen = machine_->spaces().size() * 0x9e3779b97f4a7c15ULL;
  for (const sim::AddressSpace* space : machine_->spaces())
    gen = gen * 31 + space->layout_generation() + 1;
  return gen;
}

void PaddrPrimitives::PrepareAccessChecks(std::span<const Region> regions,
                                          SimTimeUs now) {
  RebuildIfStale();
  ForEachSampled(extents_, regions, [now](const Region& r, const Extent& e) {
    if (r.end > r.start)
      e.space->vmas()[e.vma].MkOldAt(e.PageIndex(r.sampling_addr), now);
  });
}

void PaddrPrimitives::CheckAccesses(std::span<Region> regions,
                                    std::uint32_t max_checks) const {
  RebuildIfStale();
  ForEachSampled(extents_, regions, [max_checks](Region& r, const Extent& e) {
    if (r.nr_accesses < max_checks &&
        e.space->vmas()[e.vma].IsYoungAt(e.PageIndex(r.sampling_addr)))
      ++r.nr_accesses;
  });
}

std::uint64_t PaddrPrimitives::ApplyAction(DamosAction action, Addr start,
                                           Addr end, SimTimeUs now,
                                           std::uint64_t* errors) {
  RebuildIfStale();
  std::uint64_t applied = 0;
  for (const Extent& e : extents_) {
    if (e.phys_end <= start || e.phys_start >= end) continue;
    const Addr lo = std::max(start, e.phys_start);
    const Addr hi = std::min(end, e.phys_end);
    const Addr virt = e.space->vmas()[e.vma].start();
    applied += ApplyToSpace(*e.space, action, virt + (lo - e.phys_start),
                            virt + (hi - e.phys_start), now, errors);
  }
  return applied;
}

}  // namespace daos::damon
