#include "damon/monitor.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace daos::damon {
namespace {

// Merge threshold: regions whose access counts differ by no more than 10 %
// of the per-aggregation maximum are considered "similar" (both for merging
// and for aging stability).
constexpr std::uint32_t kMergeThresholdPercent = 10;

}  // namespace

DamonContext::DamonContext(MonitoringAttrs attrs, std::uint64_t seed,
                           double interference_per_sample_us)
    : attrs_(attrs),
      rng_(seed),
      interference_per_sample_us_(interference_per_sample_us) {}

void DamonContext::BindTelemetry(telemetry::MetricsRegistry& registry,
                                 telemetry::TraceBuffer* trace,
                                 std::string_view prefix) {
  const std::string p(prefix);
  tel_.samples = &registry.GetCounter(p + ".samples");
  tel_.aggregations = &registry.GetCounter(p + ".aggregations");
  tel_.region_splits = &registry.GetCounter(p + ".region_splits");
  tel_.region_merges = &registry.GetCounter(p + ".region_merges");
  tel_.regions_updates = &registry.GetCounter(p + ".regions_updates");
  tel_.cpu_us = &registry.GetGauge(p + ".cpu_us");
  tel_.nr_regions = &registry.GetGauge(p + ".nr_regions");
  trace_ = trace;
  // Catch up on anything counted before binding, so mirror == counters_.
  tel_.samples->Add(counters_.samples);
  tel_.aggregations->Add(counters_.aggregations);
  tel_.region_splits->Add(counters_.region_splits);
  tel_.region_merges->Add(counters_.region_merges);
  tel_.regions_updates->Add(counters_.regions_updates);
  tel_.cpu_us->Set(counters_.cpu_us);
  tel_.nr_regions->Set(TotalRegions());
}

MonitorSchedState DamonContext::ExportSchedState() const {
  MonitorSchedState s;
  s.primed = primed_;
  s.next_sample = next_sample_;
  s.next_aggregate = next_aggregate_;
  s.next_update = next_update_;
  s.rng_state = rng_.State();
  s.counters = counters_;
  s.target_layout_gens = target_layout_gens_;
  return s;
}

void DamonContext::ImportSchedState(const MonitorSchedState& state) {
  primed_ = state.primed;
  next_sample_ = state.next_sample;
  next_aggregate_ = state.next_aggregate;
  next_update_ = state.next_update;
  rng_.SetState(state.rng_state);
  counters_ = state.counters;
  // Layout generations beyond the current target count are dropped; missing
  // ones force a regions re-check on the next update (the safe direction).
  target_layout_gens_.assign(targets_.size(), ~0ull);
  for (std::size_t i = 0;
       i < targets_.size() && i < state.target_layout_gens.size(); ++i) {
    target_layout_gens_[i] = state.target_layout_gens[i];
  }
}

void DamonContext::CommitAttrs(const MonitoringAttrs& attrs, SimTimeUs now) {
  attrs_ = attrs;
  if (!primed_) return;  // first Step() derives the deadlines anyway
  next_sample_ = now + attrs_.sampling_interval;
  next_aggregate_ = now + attrs_.aggregation_interval;
  next_update_ = now + attrs_.regions_update_interval;
  // Regions, ages and access counts survive: the commit preserves the
  // adaptation the monitor spent wall-clock building. A shrunken
  // max_nr_regions takes effect through the normal split/merge machinery.
}

DamonTarget& DamonContext::AddTarget(std::unique_ptr<Primitives> primitives) {
  if (!DAOS_CHECK(primitives != nullptr)) {
    // A null target would crash every sampling pass; refuse it but keep the
    // context usable. The returned placeholder is never monitored.
    static DamonTarget null_target;
    null_target = DamonTarget{};
    return null_target;
  }
  targets_.push_back(DamonTarget{std::move(primitives), {}});
  target_layout_gens_.push_back(~0ull);
  return targets_.back();
}

std::uint32_t DamonContext::TotalRegions() const {
  std::uint32_t n = 0;
  for (const auto& t : targets_) n += static_cast<std::uint32_t>(t.regions.size());
  return n;
}

std::uint64_t DamonContext::MinRegionSize(const DamonTarget& target) const {
  // Regions never get smaller than target_size / max_nr_regions (and never
  // smaller than one page): this is what makes the overhead upper bound a
  // guarantee regardless of target size.
  std::uint64_t total = 0;
  for (const Region& r : target.regions) total += r.size();
  const std::uint64_t floor = total / std::max<std::uint32_t>(attrs_.max_nr_regions, 1);
  return std::max<std::uint64_t>(kPageSize, AlignDown(floor, kPageSize));
}

void DamonContext::InitRegionsFor(DamonTarget& target) {
  target.regions.clear();
  const std::vector<AddrRange> ranges = target.primitives->TargetRanges();
  if (ranges.empty()) return;
  std::uint64_t total = 0;
  for (const AddrRange& r : ranges) total += r.size();
  if (total == 0) return;

  // Split the target ranges evenly into min_nr_regions initial regions,
  // distributing the budget proportionally to range size.
  const std::uint32_t want = std::max<std::uint32_t>(attrs_.min_nr_regions, 1);
  for (const AddrRange& range : ranges) {
    // Target ranges come from primitives implementations users can swap
    // out; an inverted or empty range must not wedge the split loop below.
    if (!DAOS_CHECK(range.end > range.start)) continue;
    const std::uint64_t share = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(want) * range.size() / total);
    const std::uint64_t piece =
        std::max<std::uint64_t>(kPageSize, AlignDown(range.size() / share, kPageSize));
    Addr at = range.start;
    while (at < range.end) {
      Addr end = at + piece;
      // Last piece absorbs the remainder.
      if (end > range.end || range.end - end < piece) end = range.end;
      target.regions.push_back(Region{at, end});
      at = end;
    }
  }
}

void DamonContext::PrepareAccessChecks(SimTimeUs now) {
  std::uint64_t sampled = 0;
  // The generator and the CPU charge live in locals across the loop and
  // are written back after it: the region stores could alias the members,
  // and the primitives' batch calls read neither.
  Rng rng = rng_;
  double cpu_us = counters_.cpu_us;
  for (DamonTarget& target : targets_) {
    const double half_cost = target.primitives->CheckCostUs() * 0.5;
    for (Region& r : target.regions) {
      // Regions can be mutated through the dbgfs interface; a degenerate
      // one is skipped (it contributes no samples) instead of underflowing
      // the page count below.
      if (!DAOS_CHECK(r.end > r.start)) continue;
      // Pick a fresh random sample page; the batch call below clears its
      // accessed state and the next sampling pass reads it back.
      const std::uint64_t pages = std::max<std::uint64_t>(1, r.size() / kPageSize);
      r.sampling_addr =
          r.start + AlignDown(rng.NextBounded(pages) * kPageSize, kPageSize);
      ++sampled;
      cpu_us += half_cost;
    }
    target.primitives->PrepareAccessChecks(target.regions, now);
  }
  rng_ = rng;
  counters_.cpu_us = cpu_us;
  counters_.samples += sampled;
  if (tel_.samples != nullptr) tel_.samples->Add(sampled);
}

void DamonContext::CheckAccesses() {
  const std::uint32_t max_checks = attrs_.MaxChecksPerAggregation();
  for (DamonTarget& target : targets_) {
    target.primitives->CheckAccesses(target.regions, max_checks);
    const double half_cost = target.primitives->CheckCostUs() * 0.5;
    for (std::size_t i = 0; i < target.regions.size(); ++i)
      counters_.cpu_us += half_cost;
  }
}

void DamonContext::UpdateAges(DamonTarget& target) {
  // See MonitoringAttrs::age_reset_threshold for why the default differs
  // from the kernel's merge threshold.
  const std::uint32_t reset_thres = attrs_.age_reset_threshold;
  for (Region& r : target.regions) {
    const std::uint32_t diff = r.nr_accesses > r.last_nr_accesses
                                   ? r.nr_accesses - r.last_nr_accesses
                                   : r.last_nr_accesses - r.nr_accesses;
    if (diff <= reset_thres) {
      ++r.age;
    } else {
      r.age = 0;
    }
    r.last_nr_accesses = r.nr_accesses;
  }
}

void DamonContext::MergeRegions(DamonTarget& target, std::uint32_t threshold,
                                std::uint64_t sz_limit) {
  auto& regions = target.regions;
  if (regions.size() < 2) return;
  std::vector<Region> merged;
  merged.reserve(regions.size());
  merged.push_back(regions.front());
  for (std::size_t i = 1; i < regions.size(); ++i) {
    Region& prev = merged.back();
    const Region& cur = regions[i];
    const std::uint32_t diff = prev.nr_accesses > cur.nr_accesses
                                   ? prev.nr_accesses - cur.nr_accesses
                                   : cur.nr_accesses - prev.nr_accesses;
    const bool adjacent = prev.end == cur.start;
    if (adjacent && diff <= threshold && prev.size() + cur.size() <= sz_limit) {
      // Merge: the combined region keeps the size-weighted averages, as the
      // paper specifies for age.
      const double w_prev = static_cast<double>(prev.size());
      const double w_cur = static_cast<double>(cur.size());
      const double wsum = w_prev + w_cur;
      prev.nr_accesses = static_cast<std::uint32_t>(
          (prev.nr_accesses * w_prev + cur.nr_accesses * w_cur) / wsum);
      prev.last_nr_accesses = static_cast<std::uint32_t>(
          (prev.last_nr_accesses * w_prev + cur.last_nr_accesses * w_cur) /
          wsum);
      prev.age = static_cast<std::uint32_t>(
          (prev.age * w_prev + cur.age * w_cur) / wsum);
      prev.end = cur.end;
      ++counters_.region_merges;
      if (tel_.region_merges != nullptr) tel_.region_merges->Add(1);
      if (trace_ != nullptr) {
        // kRegionMerge: id=0, arg0..1=merged range, arg2=combined accesses.
        trace_->Push({tel_now_, telemetry::EventKind::kRegionMerge, 0,
                      prev.start, prev.end, prev.nr_accesses});
      }
    } else {
      merged.push_back(cur);
    }
  }
  regions = std::move(merged);
}

void DamonContext::SplitRegions(DamonTarget& target) {
  SplitRegions(target, TotalRegions());
}

void DamonContext::SplitRegions(DamonTarget& target, std::uint32_t total) {
  auto& regions = target.regions;
  if (total == 0) return;
  // As in the kernel: split into 2 pieces normally, 3 when region budget is
  // ample; skip splitting entirely when it would exceed the budget.
  std::uint32_t pieces = 2;
  if (total < attrs_.max_nr_regions / 3) pieces = 3;
  if (static_cast<std::uint64_t>(total) * pieces > attrs_.max_nr_regions)
    return;

  const std::uint64_t min_sz = MinRegionSize(target);
  std::vector<Region> out;
  out.reserve(regions.size() * pieces);
  for (const Region& r : regions) {
    Region rest = r;
    for (std::uint32_t p = 1; p < pieces; ++p) {
      if (rest.size() < 2 * min_sz) break;
      // Random split point (paper: "splits each sub-region into randomly
      // sized smaller regions"), aligned to pages, respecting min size.
      const std::uint64_t max_off = rest.size() - min_sz;
      const std::uint64_t off = std::max<std::uint64_t>(
          min_sz,
          AlignDown(rng_.NextInRange(min_sz, max_off), kPageSize));
      Region left = rest;
      left.end = rest.start + off;
      // Children inherit access counts and age (paper: "each sub-region
      // inherits the age of the old region").
      out.push_back(left);
      rest.start = left.end;
      ++counters_.region_splits;
      if (tel_.region_splits != nullptr) tel_.region_splits->Add(1);
      if (trace_ != nullptr) {
        // kRegionSplit: id=0, arg0..1=left child range, arg2=parent end.
        trace_->Push({tel_now_, telemetry::EventKind::kRegionSplit, 0,
                      left.start, left.end, rest.end});
      }
    }
    out.push_back(rest);
  }
  regions = std::move(out);
}

void DamonContext::UpdateRegions(DamonTarget& target) {
  // Layout changed (mmap/munmap/hotplug): clip existing regions to the new
  // target ranges so ages survive where memory is unchanged, and cover new
  // ranges with fresh regions.
  const std::vector<AddrRange> ranges = target.primitives->TargetRanges();
  std::vector<Region> updated;
  for (const AddrRange& range : ranges) {
    bool covered_any = false;
    for (const Region& r : target.regions) {
      const Addr lo = std::max(r.start, range.start);
      const Addr hi = std::min(r.end, range.end);
      if (lo >= hi) continue;
      Region clipped = r;
      clipped.start = lo;
      clipped.end = hi;
      updated.push_back(clipped);
      covered_any = true;
    }
    if (!covered_any) updated.push_back(Region{range.start, range.end});
  }
  // Fill gaps inside ranges that old regions did not cover.
  std::sort(updated.begin(), updated.end(),
            [](const Region& a, const Region& b) { return a.start < b.start; });
  std::vector<Region> final_regions;
  for (const AddrRange& range : ranges) {
    Addr cursor = range.start;
    for (const Region& r : updated) {
      if (r.start >= range.end || r.end <= range.start) continue;
      if (r.start > cursor) final_regions.push_back(Region{cursor, r.start});
      final_regions.push_back(r);
      cursor = r.end;
    }
    if (cursor < range.end) final_regions.push_back(Region{cursor, range.end});
  }
  target.regions = std::move(final_regions);
  if (target.regions.empty()) InitRegionsFor(target);
  ++counters_.regions_updates;
  if (tel_.regions_updates != nullptr) tel_.regions_updates->Add(1);
}

void DamonContext::ResetAggregated() {
  for (DamonTarget& target : targets_) {
    for (Region& r : target.regions) r.nr_accesses = 0;
  }
}

void DamonContext::Aggregate(SimTimeUs now) {
  tel_now_ = now;
  ++counters_.aggregations;
  if (tel_.aggregations != nullptr) tel_.aggregations->Add(1);
  if (trace_ != nullptr) {
    // The damon_aggregated tracepoint analogue: one kSample event per
    // region with its final counts, then the window-close marker.
    std::uint32_t target_idx = 0;
    for (const DamonTarget& target : targets_) {
      for (const Region& r : target.regions) {
        trace_->Push({now, telemetry::EventKind::kSample, target_idx, r.start,
                      r.end,
                      (std::uint64_t{r.age} << 32) | r.nr_accesses});
      }
      ++target_idx;
    }
    trace_->Push({now, telemetry::EventKind::kAggregation, 0, TotalRegions(),
                  counters_.samples, 0});
  }
  // 1. User callbacks see the final counts of this window (schemes engine,
  //    recorder, ...).
  for (AggregationHook& hook : hooks_) hook(*this, now);

  // 2. Adaptive regions adjustment + aging.
  if (!attrs_.adaptive) {
    // Space-sampling baseline: ages still advance, but regions are frozen.
    for (DamonTarget& target : targets_) UpdateAges(target);
    ResetAggregated();
    counters_.cpu_us += 0.02 * TotalRegions();
    return;
  }
  const std::uint32_t threshold = std::max<std::uint32_t>(
      1, attrs_.MaxChecksPerAggregation() * kMergeThresholdPercent / 100);
  for (DamonTarget& target : targets_) {
    UpdateAges(target);
    // Regions larger than total/min_nr never merge further, preserving the
    // accuracy floor.
    std::uint64_t total = 0;
    for (const Region& r : target.regions) total += r.size();
    const std::uint64_t sz_limit =
        std::max<std::uint64_t>(kPageSize,
                                total / std::max<std::uint32_t>(
                                            attrs_.min_nr_regions, 1));
    MergeRegions(target, threshold, sz_limit);
  }
  // 3. Reset counts, then split for the next window. Each target's split
  // budget counts the regions earlier targets' splits just added.
  ResetAggregated();
  std::uint32_t total = TotalRegions();
  for (DamonTarget& target : targets_) {
    const std::size_t before = target.regions.size();
    SplitRegions(target, total);
    total += static_cast<std::uint32_t>(target.regions.size() - before);
  }
  // Adjustment work is proportional to the region count; charge it.
  counters_.cpu_us += 0.02 * total;
}

double DamonContext::Step(SimTimeUs now, SimTimeUs quantum) {
  (void)quantum;
  tel_now_ = now;
  double interference = 0.0;

  // Lazy region initialization (targets may be added before layout exists).
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i].regions.empty()) {
      InitRegionsFor(targets_[i]);
      target_layout_gens_[i] = targets_[i].primitives->LayoutGeneration();
    }
  }

  if (!primed_) {
    PrepareAccessChecks(now);
    interference += interference_per_sample_us_ * TotalRegions();
    primed_ = true;
    next_sample_ = now + attrs_.sampling_interval;
    next_aggregate_ = now + attrs_.aggregation_interval;
    next_update_ = now + attrs_.regions_update_interval;
    return interference;
  }

  while (now >= next_sample_) {
    // Each iteration services the sample *deadline*, not the wall clock:
    // when a caller steps far past next_sample_ (coarse stepping, or a
    // restored checkpoint replaying the windows lost to a crash), the
    // aggregation/update cadence and every hook timestamp must land on the
    // same sample offsets a finer-grained run would have produced, or the
    // RNG stream and the recorder diverge from the uninterrupted run.
    const SimTimeUs vnow = next_sample_;
    CheckAccesses();
    if (vnow >= next_aggregate_) {
      Aggregate(vnow);
      next_aggregate_ += attrs_.aggregation_interval;
    }
    if (vnow >= next_update_) {
      for (std::size_t i = 0; i < targets_.size(); ++i) {
        const std::uint64_t gen = targets_[i].primitives->LayoutGeneration();
        if (gen != target_layout_gens_[i]) {
          UpdateRegions(targets_[i]);
          target_layout_gens_[i] = gen;
        }
      }
      next_update_ += attrs_.regions_update_interval;
    }
    PrepareAccessChecks(vnow);
    interference += interference_per_sample_us_ * TotalRegions();
    next_sample_ += attrs_.sampling_interval;
  }
  if (tel_.cpu_us != nullptr) {
    tel_.cpu_us->Set(counters_.cpu_us);
    tel_.nr_regions->Set(TotalRegions());
  }
  return interference;
}

}  // namespace daos::damon
