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

void VaddrPrimitives::MkOld(Addr a, SimTimeUs now) { space_->MkOld(a, now); }

bool VaddrPrimitives::IsYoung(Addr a) const { return space_->IsYoung(a); }

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
    for (const sim::Vma& vma : space->vmas()) {
      extents_.push_back(
          Extent{cursor, cursor + vma.size(), space, vma.start()});
      cursor += vma.size();
    }
  }
  phys_size_ = cursor;
  built_generation_ = gen;
}

const PaddrPrimitives::Extent* PaddrPrimitives::Translate(Addr phys) const {
  RebuildIfStale();
  auto it = std::upper_bound(
      extents_.begin(), extents_.end(), phys,
      [](Addr a, const Extent& e) { return a < e.phys_end; });
  if (it == extents_.end() || phys < it->phys_start) return nullptr;
  return &*it;
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

void PaddrPrimitives::MkOld(Addr a, SimTimeUs now) {
  if (const Extent* e = Translate(a)) {
    e->space->MkOld(e->virt_start + (a - e->phys_start), now);
  }
}

bool PaddrPrimitives::IsYoung(Addr a) const {
  if (const Extent* e = Translate(a)) {
    return e->space->IsYoung(e->virt_start + (a - e->phys_start));
  }
  return false;
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
    applied += ApplyToSpace(*e.space, action, e.virt_start + (lo - e.phys_start),
                            e.virt_start + (hi - e.phys_start), now, errors);
  }
  return applied;
}

}  // namespace daos::damon
