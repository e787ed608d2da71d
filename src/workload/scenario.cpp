#include "workload/scenario.hpp"

#include <algorithm>

#include "workload/generator.hpp"

namespace daos::workload {
namespace {

// Graph scenario shape: bounded frontier, hash-derived out-degrees.
constexpr std::size_t kFrontierSize = 48;
constexpr std::uint64_t kMinDegree = 4;
constexpr std::uint64_t kDegreeSpread = 12;
// Anti-merge stripe width: 1 MiB — below the merge granularity DAMON
// needs to keep region counts in budget, above page granularity so the
// touch stream stays cheap.
constexpr std::uint64_t kStripePages = 256;

/// Stateless mixer for graph neighbor derivation: the edge targets of a
/// vertex must not depend on how many rng draws other subsystems made.
std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  return SplitMix64(a * 0x9e3779b97f4a7c15ULL + b).Next();
}

}  // namespace

bool IsScenarioPattern(PatternKind pattern) {
  switch (pattern) {
    case PatternKind::kKvStore:
    case PatternKind::kGraph:
    case PatternKind::kMlTrain:
    case PatternKind::kAntiMerge:
      return true;
    default:
      return false;
  }
}

ScenarioSource::ScenarioSource(WorkloadProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)), rng_(seed) {}

void ScenarioSource::BuildLayout(sim::AddressSpace& space) {
  space.Map(SyntheticSource::kHeapBase, profile_.data_bytes, "heap");
  space.Map(SyntheticSource::kMmapBase, SyntheticSource::kAuxBytes, "mmap");
  space.Map(SyntheticSource::kStackBase, SyntheticSource::kStackBytes,
            "stack");

  // Carve the heap into three block-aligned areas using the profile's
  // first three group fractions (pattern semantics in the header comment).
  const std::uint64_t total_blocks = profile_.data_bytes / kHugePageSize;
  auto frac = [&](std::size_t i) {
    return i < profile_.groups.size() ? profile_.groups[i].size_frac : 0.0;
  };
  const std::uint64_t a_blocks = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(frac(0) * static_cast<double>(total_blocks)));
  const std::uint64_t b_blocks = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(frac(1) * static_cast<double>(total_blocks)));
  a_.start = SyntheticSource::kHeapBase;
  a_.pages = a_blocks * kPagesPerHuge;
  b_.start = a_.end();
  b_.pages = b_blocks * kPagesPerHuge;
  c_.start = b_.end();
  c_.pages = (total_blocks - std::min(total_blocks, a_blocks + b_blocks)) *
             kPagesPerHuge;
  zipf_.reset();
  if (profile_.pattern == PatternKind::kKvStore) {
    zipf_.emplace(b_.pages, profile_.zipf_exponent);
  }
}

sim::TouchStats ScenarioSource::EmitQuantum(sim::AddressSpace& space,
                                            SimTimeUs now, SimTimeUs quantum) {
  sim::TouchStats st;
  if (!populated_) {
    // First quantum: fault the whole footprint in once (cold data past
    // this point is what prcl reclaims), plus aux + stack.
    space.TouchRange(a_.start, c_.end(), true, now, st);
    space.TouchRange(SyntheticSource::kMmapBase,
                     SyntheticSource::kMmapBase + SyntheticSource::kAuxBytes,
                     false, now, st);
    space.TouchRange(SyntheticSource::kStackBase,
                     SyntheticSource::kStackBase + SyntheticSource::kStackBytes,
                     true, now, st);
    populated_ = true;
  }
  switch (profile_.pattern) {
    case PatternKind::kKvStore:
      st += EmitKvStore(space, now, quantum);
      break;
    case PatternKind::kGraph:
      st += EmitGraph(space, now, quantum);
      break;
    case PatternKind::kMlTrain:
      st += EmitMlTrain(space, now, quantum);
      break;
    case PatternKind::kAntiMerge:
      st += EmitAntiMerge(space, now, quantum);
      break;
    default:
      break;  // non-scenario patterns never reach this source
  }
  // Stack top stays hot, as in every other source.
  space.TouchRange(SyntheticSource::kStackBase +
                       SyntheticSource::kStackBytes - 128 * KiB,
                   SyntheticSource::kStackBase +
                       SyntheticSource::kStackBytes,
                   true, now, st);
  return st;
}

sim::TouchStats ScenarioSource::EmitKvStore(sim::AddressSpace& space,
                                            SimTimeUs now, SimTimeUs quantum) {
  sim::TouchStats st;
  // a_ = index (always hot), b_ = value log, c_ = compaction scratch (cold).
  space.TouchRange(a_.start, a_.end(), rng_.NextBool(0.2), now, st);
  // Zipfian point gets/puts; keys are ordered by popularity, so low ranks
  // form a compact hot head of the log.
  const double per_s = profile_.zipf_touches_per_s;
  const auto draws = static_cast<std::uint64_t>(
      per_s * (static_cast<double>(quantum) / kUsPerSec));
  // A local generator, as in SyntheticSource::TouchHot.
  const ZipfSampler& zipf = *zipf_;
  touches_.clear();
  Rng rng = rng_;
  for (std::uint64_t i = 0; i < draws; ++i) {
    const std::uint64_t rank = zipf.Draw(rng);
    const Addr addr = b_.start + std::min(rank, b_.pages - 1) * kPageSize;
    touches_.push_back({addr, rng.NextBool(0.3)});
  }
  rng_ = rng;
  space.TouchPages(touches_, now, st);
  // Periodic range scan: one contiguous 1/32 slice of the log per period,
  // at a random position — the long sequential reads that pollute an
  // LRU but which DAMON sees as a brief warm band.
  if (now >= next_event_) {
    next_event_ = now + static_cast<SimTimeUs>(profile_.phase_period_s *
                                               kUsPerSec);
    const std::uint64_t slice = std::max<std::uint64_t>(1, b_.pages / 32);
    const std::uint64_t at = rng_.NextBounded(b_.pages - slice + 1);
    space.TouchRange(b_.start + at * kPageSize,
                     b_.start + (at + slice) * kPageSize, false, now, st);
  }
  return st;
}

sim::TouchStats ScenarioSource::EmitGraph(sim::AddressSpace& space,
                                          SimTimeUs now, SimTimeUs quantum) {
  sim::TouchStats st;
  (void)quantum;
  // a_ = vertex array, b_ = edge array, c_ = frontier/scratch.
  if (now >= next_event_ || frontier_.empty()) {
    // New traversal epoch: reseed the frontier at random roots.
    next_event_ = now + static_cast<SimTimeUs>(profile_.phase_period_s *
                                               kUsPerSec);
    ++traversal_;
    frontier_.clear();
    for (std::size_t i = 0; i < kFrontierSize; ++i)
      frontier_.push_back(rng_.NextBounded(a_.pages));
  }
  std::vector<std::uint64_t> next;
  next.reserve(frontier_.size());
  for (const std::uint64_t v : frontier_) {
    // Visit the vertex page, then its hash-derived neighbor edge pages —
    // the irregular, locality-poor stride real graph analytics shows.
    space.TouchPage(a_.start + v * kPageSize, true, now, st);
    const std::uint64_t degree = kMinDegree + Mix(v, traversal_) % kDegreeSpread;
    for (std::uint64_t e = 0; e < degree; ++e) {
      const std::uint64_t edge = Mix(v * kDegreeSpread + e, traversal_) %
                                 b_.pages;
      space.TouchPage(b_.start + edge * kPageSize, false, now, st);
      if (next.size() < kFrontierSize) {
        next.push_back(Mix(edge, traversal_ + 1) % a_.pages);
      }
    }
  }
  frontier_ = std::move(next);
  // The frontier queue itself lives in scratch.
  space.TouchRange(c_.start, c_.start + 64 * kPageSize, true, now, st);
  return st;
}

sim::TouchStats ScenarioSource::EmitMlTrain(sim::AddressSpace& space,
                                            SimTimeUs now, SimTimeUs quantum) {
  sim::TouchStats st;
  // a_ = model weights + activations, b_ = optimizer state, c_ = dataset.
  space.TouchRange(a_.start, a_.end(), true, now, st);
  space.TouchRange(b_.start, b_.end(), true, now, st);
  // Sequential dataset sweep, one full pass per epoch; the cursor resets
  // at the epoch boundary so the sweep is epoch-periodic, not free-running.
  const double epoch_us = profile_.phase_period_s * kUsPerSec;
  const double per_quantum =
      static_cast<double>(c_.pages) * (static_cast<double>(quantum) / epoch_us);
  sweep_carry_ += per_quantum;
  auto count = static_cast<std::uint64_t>(sweep_carry_);
  sweep_carry_ -= static_cast<double>(count);
  while (count > 0) {
    const std::uint64_t run = std::min(count, c_.pages - sweep_cursor_);
    space.TouchRange(c_.start + sweep_cursor_ * kPageSize,
                     c_.start + (sweep_cursor_ + run) * kPageSize,
                     false, now, st);
    sweep_cursor_ = (sweep_cursor_ + run) % c_.pages;
    count -= run;
  }
  return st;
}

sim::TouchStats ScenarioSource::EmitAntiMerge(sim::AddressSpace& space,
                                              SimTimeUs now,
                                              SimTimeUs quantum) {
  sim::TouchStats st;
  (void)quantum;
  // Alternating 1 MiB stripes over the whole heap; the active parity flips
  // every period. Neighboring stripes therefore always disagree on
  // nr_accesses and age, defeating the merge pass that keeps the region
  // count low — the adversarial input for the monitor's overhead bound.
  const auto period =
      static_cast<SimTimeUs>(profile_.phase_period_s * kUsPerSec);
  const std::uint64_t parity = (now / std::max<SimTimeUs>(1, period)) & 1;
  const std::uint64_t total_pages = a_.pages + b_.pages + c_.pages;
  const std::uint64_t stripes = total_pages / kStripePages;
  for (std::uint64_t s = parity; s < stripes; s += 2) {
    const Addr start = a_.start + s * kStripePages * kPageSize;
    space.TouchRange(start, start + kStripePages * kPageSize,
                     rng_.NextBool(0.3), now, st);
  }
  return st;
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

namespace {

std::vector<WorkloadProfile> MakeScenarios() {
  std::vector<WorkloadProfile> all;

  WorkloadProfile kv;
  kv.name = "scenario/kvstore";
  kv.suite = "scenario";
  kv.data_bytes = 768 * MiB;
  kv.runtime_s = 90;
  kv.mem_boundness = 0.7;
  kv.thp_gain = 0.06;
  kv.zram_ratio = 2.5;
  kv.noise = 0.02;
  kv.pattern = PatternKind::kKvStore;
  kv.phase_period_s = 5;  // range-scan period
  kv.zipf_touches_per_s = 30000;
  kv.zipf_exponent = 0.99;
  kv.groups = {GroupSpec{0.08, 0.0, 1.0, 0.2},   // index
               GroupSpec{0.82, 10.0, 1.0, 0.3},  // value log
               GroupSpec{0.10, -1.0, 1.0, 0.1}}; // compaction scratch
  all.push_back(kv);

  WorkloadProfile gr;
  gr.name = "scenario/graph";
  gr.suite = "scenario";
  gr.data_bytes = 1024 * MiB;
  gr.runtime_s = 100;
  gr.mem_boundness = 0.85;
  gr.thp_gain = 0.12;
  gr.zram_ratio = 3.0;
  gr.noise = 0.03;
  gr.pattern = PatternKind::kGraph;
  gr.phase_period_s = 8;  // traversal epoch
  gr.zipf_touches_per_s = 0;
  gr.groups = {GroupSpec{0.25, 0.0, 1.0, 0.4},   // vertices
               GroupSpec{0.60, 8.0, 1.0, 0.0},   // edges
               GroupSpec{0.15, -1.0, 1.0, 0.5}}; // scratch
  all.push_back(gr);

  WorkloadProfile ml;
  ml.name = "scenario/mltrain";
  ml.suite = "scenario";
  ml.data_bytes = 1280 * MiB;
  ml.runtime_s = 120;
  ml.mem_boundness = 0.8;
  ml.thp_gain = 0.15;
  ml.zram_ratio = 3.5;
  ml.noise = 0.02;
  ml.pattern = PatternKind::kMlTrain;
  ml.phase_period_s = 15;  // epoch length
  ml.zipf_touches_per_s = 0;
  ml.groups = {GroupSpec{0.12, 0.0, 1.0, 0.8},   // model + activations
               GroupSpec{0.08, 0.0, 1.0, 1.0},   // optimizer state
               GroupSpec{0.80, 15.0, 1.0, 0.0}}; // dataset
  all.push_back(ml);

  WorkloadProfile am;
  am.name = "scenario/antimerge";
  am.suite = "scenario";
  am.data_bytes = 192 * MiB;
  am.runtime_s = 80;
  am.mem_boundness = 0.5;
  am.thp_gain = 0.0;
  am.zram_ratio = 3.0;
  am.noise = 0.0;
  am.pattern = PatternKind::kAntiMerge;
  am.phase_period_s = 1;  // stripe-parity flip period
  am.zipf_touches_per_s = 0;
  am.groups = {GroupSpec{0.5, 0.0, 1.0, 0.3},
               GroupSpec{0.3, 2.0, 1.0, 0.3},
               GroupSpec{0.2, -1.0, 1.0, 0.3}};
  all.push_back(am);

  return all;
}

}  // namespace

const std::vector<WorkloadProfile>& ScenarioProfiles() {
  static const std::vector<WorkloadProfile> all = MakeScenarios();
  return all;
}

}  // namespace daos::workload
