#include "analysis/heatmap.hpp"

#include <algorithm>

namespace daos::analysis {

double Heatmap::MaxCell() const {
  double best = 0.0;
  for (double v : cells) best = std::max(best, v);
  return best;
}

AddrSpan FindActiveSubspace(std::span<const damon::Snapshot> snapshots,
                            int target_index, std::uint64_t gap_merge) {
  // Collect every region that saw any access, weighted by count*size.
  struct Ext {
    Addr lo, hi;
    double weight;
  };
  std::vector<Ext> exts;
  for (const damon::Snapshot& snap : snapshots) {
    if (snap.target_index != target_index) continue;
    for (const damon::SnapshotRegion& r : snap.regions) {
      if (r.nr_accesses == 0) continue;
      exts.push_back(Ext{r.start, r.end,
                         static_cast<double>(r.nr_accesses) *
                             static_cast<double>(r.end - r.start)});
    }
  }
  if (exts.empty()) return {};
  std::sort(exts.begin(), exts.end(),
            [](const Ext& a, const Ext& b) { return a.lo < b.lo; });

  // Merge into clusters separated by more than gap_merge.
  AddrSpan best{};
  double best_weight = -1.0;
  Addr cl_lo = exts.front().lo;
  Addr cl_hi = exts.front().hi;
  double cl_weight = 0.0;
  auto flush = [&] {
    if (cl_weight > best_weight) {
      best = AddrSpan{cl_lo, cl_hi};
      best_weight = cl_weight;
    }
  };
  for (const Ext& e : exts) {
    if (e.lo > cl_hi + gap_merge) {
      flush();
      cl_lo = e.lo;
      cl_hi = e.hi;
      cl_weight = 0.0;
    }
    cl_hi = std::max(cl_hi, e.hi);
    cl_weight += e.weight;
  }
  flush();
  return best;
}

Heatmap BuildHeatmap(std::span<const damon::Snapshot> snapshots,
                     int target_index, std::size_t time_bins,
                     std::size_t addr_bins, AddrSpan span) {
  Heatmap map;
  map.time_bins = time_bins;
  map.addr_bins = addr_bins;
  map.cells.assign(time_bins * addr_bins, 0.0);
  std::vector<double> coverage(time_bins * addr_bins, 0.0);
  if (snapshots.empty() || time_bins == 0 || addr_bins == 0) return map;

  if (span.hi <= span.lo)
    span = FindActiveSubspace(snapshots, target_index);
  if (span.hi <= span.lo) return map;
  map.addr_lo = span.lo;
  map.addr_hi = span.hi;
  map.t_lo = snapshots.front().at;
  map.t_hi = snapshots.back().at;
  if (map.t_hi <= map.t_lo) map.t_hi = map.t_lo + 1;

  const double t_scale = static_cast<double>(time_bins) /
                         static_cast<double>(map.t_hi - map.t_lo);
  const double a_scale = static_cast<double>(addr_bins) /
                         static_cast<double>(span.hi - span.lo);
  for (const damon::Snapshot& snap : snapshots) {
    if (snap.target_index != target_index) continue;
    const auto tb = std::min(
        time_bins - 1, static_cast<std::size_t>(
                           static_cast<double>(snap.at - map.t_lo) * t_scale));
    for (const damon::SnapshotRegion& r : snap.regions) {
      const Addr lo = std::max(r.start, span.lo);
      const Addr hi = std::min(r.end, span.hi);
      if (lo >= hi) continue;
      const auto a0 = static_cast<std::size_t>(
          static_cast<double>(lo - span.lo) * a_scale);
      const auto a1 = std::min(
          addr_bins - 1,
          static_cast<std::size_t>(static_cast<double>(hi - 1 - span.lo) *
                                   a_scale));
      for (std::size_t a = a0; a <= a1; ++a) {
        map.cells[tb * addr_bins + a] += static_cast<double>(r.nr_accesses);
        coverage[tb * addr_bins + a] += 1.0;
      }
    }
  }
  for (std::size_t i = 0; i < map.cells.size(); ++i) {
    if (coverage[i] > 0.0) map.cells[i] /= coverage[i];
  }
  return map;
}

std::string RenderAscii(const Heatmap& map) {
  static constexpr char kShades[] = " .:-=+*#%@";
  const double max = map.MaxCell();
  std::string out;
  out.reserve((map.addr_bins + 1) * map.time_bins);
  for (std::size_t t = 0; t < map.time_bins; ++t) {
    for (std::size_t a = 0; a < map.addr_bins; ++a) {
      const double v = max > 0 ? map.At(t, a) / max : 0.0;
      const auto idx = static_cast<std::size_t>(v * 9.0);
      out.push_back(kShades[std::min<std::size_t>(idx, 9)]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace daos::analysis
