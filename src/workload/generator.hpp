// SyntheticSource: turns a WorkloadProfile into a page-touch stream.
//
// Layout mirrors a real process (paper §4.1: "the virtual address space has
// two large gaps between stack, mmap()-ed areas, and heap"): one big data
// area (heap), an auxiliary mmap area, and a stack, separated by large
// unmapped gaps — which also exercises the monitor's three-regions logic.
#pragma once

#include <memory>
#include <optional>

#include "sim/process.hpp"
#include "util/rng.hpp"
#include "workload/profile.hpp"

namespace daos::workload {

class SyntheticSource final : public sim::AccessSource {
 public:
  SyntheticSource(WorkloadProfile profile, std::uint64_t seed);

  void BuildLayout(sim::AddressSpace& space) override;
  sim::TouchStats EmitQuantum(sim::AddressSpace& space, SimTimeUs now,
                              SimTimeUs quantum) override;

  const WorkloadProfile& profile() const noexcept { return profile_; }

  // Layout constants (exposed for tests and heatmap scaling).
  static constexpr Addr kHeapBase = 0x0000'1000'0000ULL;
  static constexpr Addr kMmapBase = 0x7f00'0000'0000ULL;
  static constexpr Addr kStackBase = 0x7fff'f000'0000ULL;
  static constexpr std::uint64_t kAuxBytes = 16 * MiB;
  static constexpr std::uint64_t kStackBytes = 8 * MiB;

 private:
  struct GroupState {
    GroupSpec spec;
    Addr start = 0;                 // within the heap area
    std::uint64_t used_pages = 0;   // density-adjusted page count
    Divisor used_per_block;         // used pages at the head of a block
    std::uint64_t cursor = 0;       // warm-walk position in used-page space
    double carry = 0.0;             // fractional pages carried across quanta
  };

  /// Used-page index -> address (pages cluster at the head of each 2 MiB
  /// block, giving sparse groups their THP-bloat-producing shape).
  Addr UsedIndexToAddr(const GroupState& g, std::uint64_t used_idx) const;
  /// Touches `count` used pages of `g` starting at used-index `from`,
  /// using block-wise range touches. Returns stats; does not wrap.
  sim::TouchStats TouchUsedSpan(sim::AddressSpace& space, const GroupState& g,
                                std::uint64_t from, std::uint64_t count,
                                bool write, SimTimeUs now);
  sim::TouchStats PopulateAll(sim::AddressSpace& space, SimTimeUs now);
  sim::TouchStats TouchHot(sim::AddressSpace& space, SimTimeUs now,
                           SimTimeUs quantum);
  sim::TouchStats WalkWarm(sim::AddressSpace& space, GroupState& g,
                           SimTimeUs now, SimTimeUs quantum);

  WorkloadProfile profile_;
  Rng rng_;
  std::vector<GroupState> groups_;
  bool populated_ = false;
  std::vector<sim::PageTouch> touches_;  // one quantum's Zipf draws
  // The hot window: its size is fixed at layout, so its sampler is built
  // once; kScan and kPhased move only its position.
  std::uint64_t win_pages_ = 0;
  std::optional<ZipfSampler> zipf_;  // none when there is no hot group
  std::uint64_t hot_window_at_ = 0;  // kPhased: used-page offset of the window
  SimTimeUs next_phase_ = 0;
};

/// Converts a profile to the process parameters of the simulator.
sim::ProcessParams ToProcessParams(const WorkloadProfile& profile);

/// Creates a ready-to-run access source.
std::unique_ptr<sim::AccessSource> MakeSource(const WorkloadProfile& profile,
                                              std::uint64_t seed);

}  // namespace daos::workload
