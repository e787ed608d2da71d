#include "damon/recorder.hpp"

namespace daos::damon {

void Recorder::Attach(DamonContext& ctx, SimTimeUs every) {
  every_ = every;
  next_ = 0;
  ctx.AddAggregationHook(
      [this](DamonContext& c, SimTimeUs now) { Record(c, now); });
}

void Recorder::Record(DamonContext& ctx, SimTimeUs now) {
  if (every_ != 0 && now < next_) return;
  next_ = now + every_;
  const std::vector<DamonTarget>& targets = ctx.targets();
  // Snapshots the bound would drop at once are not taken.
  const std::size_t first =
      targets.size() > max_snapshots_ ? targets.size() - max_snapshots_ : 0;
  for (std::size_t i = first; i < targets.size(); ++i) {
    const DamonTarget& target = targets[i];
    Snapshot snap;
    snap.at = now;
    snap.target_index = static_cast<int>(i);
    snap.regions.reserve(target.regions.size());
    for (const Region& r : target.regions) {
      snap.regions.push_back(
          SnapshotRegion{r.start, r.end, r.nr_accesses, r.age});
    }
    snapshots_.push_back(std::move(snap));
  }
  DropOldest();
}

void Recorder::DropOldest() {
  if (snapshots_.size() <= max_snapshots_) return;
  const std::size_t drop = snapshots_.size() - max_snapshots_;
  snapshots_.erase(snapshots_.begin(),
                   snapshots_.begin() + static_cast<std::ptrdiff_t>(drop));
}

std::uint64_t Recorder::LatestWorkingSetBytes() const {
  for (auto it = snapshots_.rbegin(); it != snapshots_.rend(); ++it) {
    if (it->target_index != 0) continue;
    std::uint64_t bytes = 0;
    for (const SnapshotRegion& r : it->regions) {
      if (r.nr_accesses > 0) bytes += r.end - r.start;
    }
    return bytes;
  }
  return 0;
}

}  // namespace daos::damon
