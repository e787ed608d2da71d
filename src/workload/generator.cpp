#include "workload/generator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "trace/replay.hpp"
#include "workload/scenario.hpp"

namespace daos::workload {

SyntheticSource::SyntheticSource(WorkloadProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)), rng_(seed) {}

void SyntheticSource::BuildLayout(sim::AddressSpace& space) {
  space.Map(kHeapBase, profile_.data_bytes, "heap");
  space.Map(kMmapBase, kAuxBytes, "mmap");
  space.Map(kStackBase, kStackBytes, "stack");

  // Partition the heap across the groups, block-aligned so density math
  // lines up with THP blocks.
  Addr at = kHeapBase;
  groups_.clear();
  for (const GroupSpec& spec : profile_.groups) {
    GroupState g;
    g.spec = spec;
    g.start = at;
    const std::uint64_t bytes = AlignDown(
        static_cast<std::uint64_t>(spec.size_frac *
                                   static_cast<double>(profile_.data_bytes)),
        kHugePageSize);
    const std::uint64_t blocks = std::max<std::uint64_t>(1, bytes / kHugePageSize);
    g.used_per_block = Divisor(std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(spec.density *
                                      static_cast<double>(kPagesPerHuge))));
    g.used_pages = blocks * g.used_per_block.value();
    groups_.push_back(g);
    at += blocks * kHugePageSize;
    assert(at <= kHeapBase + profile_.data_bytes);
  }

  zipf_.reset();
  if (groups_.empty() || groups_.front().spec.period_s != 0.0) return;
  const std::uint64_t hot_pages = groups_.front().used_pages;
  switch (profile_.pattern) {
    case PatternKind::kScan:  // the window slides across the group
      win_pages_ = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(hot_pages * 0.25));
      break;
    case PatternKind::kPhased:  // the window jumps every phase period
      win_pages_ = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(hot_pages * 0.4));
      break;
    default:
      win_pages_ = hot_pages;
      break;
  }
  zipf_.emplace(win_pages_, profile_.zipf_exponent);
}

Addr SyntheticSource::UsedIndexToAddr(const GroupState& g,
                                      std::uint64_t used_idx) const {
  assert(used_idx < std::uint64_t{1} << 32);  // Divisor's exact range
  const std::uint64_t block = g.used_per_block.Quotient(used_idx);
  const std::uint64_t offset = used_idx - block * g.used_per_block.value();
  return g.start + block * kHugePageSize + offset * kPageSize;
}

sim::TouchStats SyntheticSource::TouchUsedSpan(sim::AddressSpace& space,
                                               const GroupState& g,
                                               std::uint64_t from,
                                               std::uint64_t count, bool write,
                                               SimTimeUs now) {
  sim::TouchStats st;
  const std::uint64_t per_block = g.used_per_block.value();
  if (per_block == kPagesPerHuge) {
    // Dense group: the used-index space maps linearly onto addresses, so
    // the whole span is one contiguous range touch.
    const std::uint64_t run = std::min(count, g.used_pages - from);
    const Addr start = UsedIndexToAddr(g, from);
    return space.TouchRange(start, start + run * kPageSize, write, now);
  }
  std::uint64_t idx = from;
  while (count > 0 && idx < g.used_pages) {
    const std::uint64_t in_block = per_block - idx % per_block;
    const std::uint64_t run = std::min(count, in_block);
    const Addr start = UsedIndexToAddr(g, idx);
    space.TouchRange(start, start + run * kPageSize, write, now, st);
    idx += run;
    count -= run;
  }
  return st;
}

sim::TouchStats SyntheticSource::PopulateAll(sim::AddressSpace& space,
                                             SimTimeUs now) {
  sim::TouchStats st;
  for (const GroupState& g : groups_) {
    st += TouchUsedSpan(space, g, 0, g.used_pages, /*write=*/true, now);
  }
  space.TouchRange(kMmapBase, kMmapBase + kAuxBytes, false, now, st);
  space.TouchRange(kStackBase, kStackBase + kStackBytes, true, now, st);
  return st;
}

sim::TouchStats SyntheticSource::TouchHot(sim::AddressSpace& space,
                                          SimTimeUs now, SimTimeUs quantum) {
  sim::TouchStats st;
  if (!zipf_) return st;  // profile has no hot group
  const GroupState& hot = groups_.front();
  const std::uint64_t win_pages = win_pages_;
  std::uint64_t win_at = 0;
  switch (profile_.pattern) {
    case PatternKind::kScan: {
      // The hot window slides across the group once per phase period.
      const double period_us = profile_.phase_period_s * kUsPerSec;
      const double pos = std::fmod(static_cast<double>(now), period_us) / period_us;
      win_at = static_cast<std::uint64_t>(pos * static_cast<double>(
                                                    hot.used_pages - win_pages));
      break;
    }
    case PatternKind::kPhased: {
      if (now >= next_phase_) {
        next_phase_ = now + static_cast<SimTimeUs>(profile_.phase_period_s *
                                                   kUsPerSec);
        hot_window_at_ =
            rng_.NextBounded(hot.used_pages > win_pages
                                 ? hot.used_pages - win_pages + 1
                                 : 1);
      }
      win_at = hot_window_at_;
      break;
    }
    default:
      break;  // kStatic; scenario patterns are served by ScenarioSource
  }
  st += TouchUsedSpan(space, hot, win_at, win_pages,
                      rng_.NextBool(hot.spec.write_frac), now);

  // Zipf-distributed single-page touches over the hot window: fine-grained
  // jitter inside the hot set. Each draw takes its rank, then its write
  // flag; the pages go to the address space as one ordered batch.
  const double n = profile_.zipf_touches_per_s *
                   (static_cast<double>(quantum) / kUsPerSec);
  const auto draws = static_cast<std::uint64_t>(n);
  // The loop draws from a local copy of the generator, written back after
  // it: the buffer's stores could alias rng_, which would pin it in memory.
  const ZipfSampler& zipf = *zipf_;
  touches_.clear();
  Rng rng = rng_;
  for (std::uint64_t i = 0; i < draws; ++i) {
    const std::uint64_t rank = zipf.Draw(rng);
    const Addr a = UsedIndexToAddr(
        hot, win_at + std::min(rank, win_pages - 1));
    touches_.push_back({a, rng.NextBool(hot.spec.write_frac)});
  }
  rng_ = rng;
  space.TouchPages(touches_, now, st);
  // Stack top is always hot.
  space.TouchRange(kStackBase + kStackBytes - 128 * KiB,
                   kStackBase + kStackBytes, true, now, st);
  return st;
}

sim::TouchStats SyntheticSource::WalkWarm(sim::AddressSpace& space,
                                          GroupState& g, SimTimeUs now,
                                          SimTimeUs quantum) {
  sim::TouchStats st;
  // Touch used_pages * quantum / period pages per quantum, walking a cursor
  // so every page of the group is re-referenced once per period.
  const double per_quantum =
      static_cast<double>(g.used_pages) *
      (static_cast<double>(quantum) / (g.spec.period_s * kUsPerSec));
  g.carry += per_quantum;
  auto count = static_cast<std::uint64_t>(g.carry);
  if (count == 0) return st;
  g.carry -= static_cast<double>(count);
  while (count > 0) {
    const std::uint64_t run = std::min(count, g.used_pages - g.cursor);
    st += TouchUsedSpan(space, g, g.cursor, run,
                        rng_.NextBool(g.spec.write_frac), now);
    g.cursor = (g.cursor + run) % g.used_pages;
    count -= run;
  }
  return st;
}

sim::TouchStats SyntheticSource::EmitQuantum(sim::AddressSpace& space,
                                             SimTimeUs now,
                                             SimTimeUs quantum) {
  sim::TouchStats st;
  if (!populated_) {
    st += PopulateAll(space, now);
    populated_ = true;
  }
  st += TouchHot(space, now, quantum);
  for (GroupState& g : groups_) {
    if (g.spec.period_s > 0.0) st += WalkWarm(space, g, now, quantum);
  }
  return st;
}

sim::ProcessParams ToProcessParams(const WorkloadProfile& profile) {
  sim::ProcessParams params;
  params.name = profile.name;
  params.total_work_us = profile.runtime_s * static_cast<double>(kUsPerSec);
  params.mem_boundness = profile.mem_boundness;
  params.thp_gain = profile.thp_gain;
  params.zram_ratio = profile.zram_ratio;
  return params;
}

std::unique_ptr<sim::AccessSource> MakeSource(const WorkloadProfile& profile,
                                              std::uint64_t seed) {
  if (profile.trace_data != nullptr) {
    return std::make_unique<trace::TraceReplaySource>(profile.trace_data);
  }
  if (IsScenarioPattern(profile.pattern)) {
    return std::make_unique<ScenarioSource>(profile, seed);
  }
  return std::make_unique<SyntheticSource>(profile, seed);
}

}  // namespace daos::workload
