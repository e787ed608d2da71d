// Recorder: captures aggregated monitoring results over time.
//
// This is the `rec`/`prec` configuration of the paper's evaluation (§4):
// the access pattern of each aggregation interval is stored as a list of
// (region, nr_accesses) rows, from which the Figure 6 heatmaps are built.
#pragma once

#include <cstdint>
#include <vector>

#include "damon/monitor.hpp"
#include "util/types.hpp"

namespace daos::damon {

struct SnapshotRegion {
  Addr start = 0;
  Addr end = 0;
  std::uint32_t nr_accesses = 0;
  std::uint32_t age = 0;
};

struct Snapshot {
  SimTimeUs at = 0;
  int target_index = 0;
  std::vector<SnapshotRegion> regions;
};

class Recorder {
 public:
  /// Keeps at most `max_snapshots`, newest kept and oldest dropped first.
  /// The default keeps the whole history, which the heatmaps need; the
  /// lifecycle supervisor keeps only what its checkpoint carries.
  explicit Recorder(std::size_t max_snapshots = SIZE_MAX)
      : max_snapshots_(max_snapshots) {}

  /// Registers the recorder on `ctx`. `every` limits recording frequency
  /// (0 = every aggregation interval). The recorder must outlive the
  /// context's use of the hook.
  void Attach(DamonContext& ctx, SimTimeUs every = 0);

  const std::vector<Snapshot>& snapshots() const noexcept { return snapshots_; }

  /// Checkpoint hooks (src/lifecycle). `RestoreTail` replaces the held
  /// history with a checkpoint's (its newest `max_snapshots` when longer)
  /// and re-arms the recording cadence, so post-restore snapshots append
  /// seamlessly after the restored ones.
  SimTimeUs every() const noexcept { return every_; }
  SimTimeUs next() const noexcept { return next_; }
  void RestoreTail(std::vector<Snapshot> tail, SimTimeUs next) {
    snapshots_ = std::move(tail);
    next_ = next;
    DropOldest();
  }

  /// Total bytes believed accessed (nr_accesses > 0) in the latest
  /// snapshot of target 0 — a cheap working-set-size estimate.
  std::uint64_t LatestWorkingSetBytes() const;

 private:
  void Record(DamonContext& ctx, SimTimeUs now);
  void DropOldest();

  std::size_t max_snapshots_;
  std::vector<Snapshot> snapshots_;
  SimTimeUs every_ = 0;
  SimTimeUs next_ = 0;
};

}  // namespace daos::damon
