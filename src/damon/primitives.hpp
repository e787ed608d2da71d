// Monitoring Primitives layer (paper §3.1, Figure 2).
//
// The access-check method depends on the monitoring target: virtual address
// spaces use the VMA list and PTE accessed bits; the physical address space
// uses reverse mappings (rmap). Both are provided here as the paper's two
// reference implementations, behind an interface users can re-implement for
// special hardware (CMT, PML, ...).
//
// As in the kernel implementation, the primitives also carry out the DAMOS
// actions, since applying an action is equally target-specific.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "damon/region.hpp"
#include "util/types.hpp"

namespace daos::sim {
class AddressSpace;
class Machine;
}  // namespace daos::sim

namespace daos::damon {

/// The memory-management actions of paper Table 1.
enum class DamosAction : std::uint8_t {
  kWillneed,    // expect the region to be accessed soon: prefetch swapped pages
  kCold,        // expect no accesses soon: reclaim-first candidate
  kPageout,     // immediately page the region out
  kHugepage,    // THP-promote the region
  kNohugepage,  // THP-demote the region (frees bloat sub-pages)
  kStat,        // only count matching regions (working-set estimation, tuning)
  kMigrateHot,  // move the region into the fast memory tier
  kMigrateCold, // move the region down to a slower memory tier
};

std::string_view DamosActionName(DamosAction action);

/// Target-specific monitoring and action operations.
class Primitives {
 public:
  virtual ~Primitives() = default;

  /// The address ranges worth monitoring right now (gaps excluded).
  virtual std::vector<AddrRange> TargetRanges() = 0;
  /// Changes whenever the target layout changed (drives regions update).
  virtual std::uint64_t LayoutGeneration() const = 0;

  // Access checks run as one batch over a target's regions, which are
  // normally in address order (any order works). Pages outside the target
  // never read young.
  /// Clears the accessed state of each region's `sampling_addr` page,
  /// skipping degenerate regions (end <= start).
  virtual void PrepareAccessChecks(std::span<const Region> regions,
                                   SimTimeUs now) = 0;
  /// Adds one to `nr_accesses`, capped at `max_checks`, for every region
  /// (degenerate ones too) whose sampled page was accessed since then.
  virtual void CheckAccesses(std::span<Region> regions,
                             std::uint32_t max_checks) const = 0;

  /// CPU cost of a single prepare+check pair, for overhead accounting.
  virtual double CheckCostUs() const = 0;

  /// Applies `action` to [start, end); returns bytes the action affected.
  /// Recoverable action failures (swap write errors, failed THP collapses)
  /// are counted into `*errors` when non-null; the action still applies to
  /// whatever part of the range it can.
  virtual std::uint64_t ApplyAction(DamosAction action, Addr start, Addr end,
                                    SimTimeUs now,
                                    std::uint64_t* errors = nullptr) = 0;
};

/// Reference implementation for one process's virtual address space
/// (struct-vma + PTE accessed bits in the paper).
class VaddrPrimitives final : public Primitives {
 public:
  explicit VaddrPrimitives(sim::AddressSpace* space,
                           double check_cost_us = 0.07)
      : space_(space), check_cost_us_(check_cost_us) {}

  std::vector<AddrRange> TargetRanges() override;
  std::uint64_t LayoutGeneration() const override;
  void PrepareAccessChecks(std::span<const Region> regions,
                           SimTimeUs now) override;
  void CheckAccesses(std::span<Region> regions,
                     std::uint32_t max_checks) const override;
  double CheckCostUs() const override { return check_cost_us_; }
  std::uint64_t ApplyAction(DamosAction action, Addr start, Addr end,
                            SimTimeUs now,
                            std::uint64_t* errors = nullptr) override;

  sim::AddressSpace* space() noexcept { return space_; }

 private:
  sim::AddressSpace* space_;
  double check_cost_us_;
};

/// Reference implementation for the machine's physical address space
/// (PTE accessed bits reached through rmap in the paper). The synthetic
/// physical space concatenates every registered address space's mappings;
/// the translation table is rebuilt on layout changes, which is what the
/// regions-update interval exists for.
class PaddrPrimitives final : public Primitives {
 public:
  explicit PaddrPrimitives(sim::Machine* machine, double check_cost_us = 0.09)
      : machine_(machine), check_cost_us_(check_cost_us) {}

  std::vector<AddrRange> TargetRanges() override;
  std::uint64_t LayoutGeneration() const override;
  void PrepareAccessChecks(std::span<const Region> regions,
                           SimTimeUs now) override;
  void CheckAccesses(std::span<Region> regions,
                     std::uint32_t max_checks) const override;
  double CheckCostUs() const override { return check_cost_us_; }
  std::uint64_t ApplyAction(DamosAction action, Addr start, Addr end,
                            SimTimeUs now,
                            std::uint64_t* errors = nullptr) override;

 private:
  /// rmap: one VMA's pages at [phys_start, phys_end) of the physical space.
  struct Extent {
    Addr phys_start = 0;
    Addr phys_end = 0;
    sim::AddressSpace* space = nullptr;
    std::size_t vma = 0;  // index into space->vmas()

    Addr start() const noexcept { return phys_start; }
    Addr end() const noexcept { return phys_end; }
    std::size_t PageIndex(Addr phys) const noexcept {
      return static_cast<std::size_t>((phys - phys_start) >> kPageShift);
    }
  };

  void RebuildIfStale() const;

  sim::Machine* machine_;
  double check_cost_us_;
  mutable std::vector<Extent> extents_;
  mutable std::uint64_t built_generation_ = ~0ull;
  mutable Addr phys_size_ = 0;
};

}  // namespace daos::damon
