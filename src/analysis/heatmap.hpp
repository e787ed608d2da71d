// Heatmap construction and rendering for recorded access patterns —
// reproduces the Figure 6 visualizations ("when (x) what memory regions (y)
// is how frequently (color) accessed").
//
// As the paper notes (§4.1), virtual address spaces have two huge gaps;
// plotting them would leave the heatmap blank, so FindActiveSubspace picks
// the largest contiguous cluster of actually-accessed addresses.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "damon/recorder.hpp"
#include "util/types.hpp"

namespace daos::analysis {

struct Heatmap {
  std::size_t time_bins = 0;
  std::size_t addr_bins = 0;
  std::vector<double> cells;  // row-major [time][addr], mean access samples
  Addr addr_lo = 0;
  Addr addr_hi = 0;
  SimTimeUs t_lo = 0;
  SimTimeUs t_hi = 0;

  double At(std::size_t t, std::size_t a) const {
    return cells[t * addr_bins + a];
  }
  double MaxCell() const;
};

struct AddrSpan {
  Addr lo = 0;
  Addr hi = 0;
};

/// Finds the biggest cluster of accessed addresses across the snapshots of
/// `target_index`, merging accessed ranges separated by less than
/// `gap_merge` bytes and picking the cluster with the most access weight.
AddrSpan FindActiveSubspace(std::span<const damon::Snapshot> snapshots,
                            int target_index, std::uint64_t gap_merge = GiB);

/// Bins the snapshots into a time x address grid over `span` (pass a
/// default-constructed span to auto-detect via FindActiveSubspace).
Heatmap BuildHeatmap(std::span<const damon::Snapshot> snapshots,
                     int target_index, std::size_t time_bins,
                     std::size_t addr_bins, AddrSpan span = {});

/// ASCII rendering: one row per time bin, darkness ~ access frequency.
std::string RenderAscii(const Heatmap& map);

}  // namespace daos::analysis
