// ScenarioSource: application-shaped workloads beyond the Parsec/Splash
// archetypes (suite "scenario", ISSUE 6 / ROADMAP item 3).
//
// Where SyntheticSource reproduces Figure 6 heatmap *shapes*, these model
// the access structure of real server applications:
//
//   scenario/kvstore   — an LSM-ish store: a compact always-hot index, a
//                        value log hit by zipfian point reads/writes (keys
//                        ordered by popularity), and periodic range scans
//                        sweeping a random slice of the log.
//   scenario/graph     — frontier-driven traversal: each quantum expands a
//                        bounded frontier of vertex pages into hash-derived
//                        neighbor edge pages (irregular, poor locality);
//                        the frontier reseeds every epoch.
//   scenario/mltrain   — training loop: model + optimizer state rewritten
//                        every quantum, the dataset swept sequentially once
//                        per epoch (epoch-periodic cold->warm cycling).
//   scenario/antimerge — adversarial: 1 MiB stripes touched in alternating
//                        parity that flips every period, so adjacent
//                        regions never agree on nr_accesses long enough to
//                        merge — worst case for the monitor's region count.
//
// All four run anywhere a parsec profile runs (fig4/fig7 grids, parallel
// runner) and are deterministic in (profile, seed).
#pragma once

#include <optional>

#include "sim/process.hpp"
#include "util/rng.hpp"
#include "workload/profile.hpp"

namespace daos::workload {

class ScenarioSource final : public sim::AccessSource {
 public:
  ScenarioSource(WorkloadProfile profile, std::uint64_t seed);

  void BuildLayout(sim::AddressSpace& space) override;
  sim::TouchStats EmitQuantum(sim::AddressSpace& space, SimTimeUs now,
                              SimTimeUs quantum) override;

  const WorkloadProfile& profile() const noexcept { return profile_; }

 private:
  struct Area {
    Addr start = 0;
    std::uint64_t pages = 0;
    Addr end() const noexcept { return start + pages * kPageSize; }
  };

  sim::TouchStats EmitKvStore(sim::AddressSpace& space, SimTimeUs now,
                              SimTimeUs quantum);
  sim::TouchStats EmitGraph(sim::AddressSpace& space, SimTimeUs now,
                            SimTimeUs quantum);
  sim::TouchStats EmitMlTrain(sim::AddressSpace& space, SimTimeUs now,
                              SimTimeUs quantum);
  sim::TouchStats EmitAntiMerge(sim::AddressSpace& space, SimTimeUs now,
                                SimTimeUs quantum);

  WorkloadProfile profile_;
  Rng rng_;
  bool populated_ = false;
  // The heap is carved into up to three areas at build time; meaning
  // depends on the pattern (index/values/scratch, vertices/edges/scratch,
  // model/optimizer/dataset, stripes/-/-).
  Area a_;
  Area b_;
  Area c_;
  SimTimeUs next_event_ = 0;       // kvstore scan / graph epoch boundary
  std::vector<std::uint64_t> frontier_;  // graph: vertex page indices
  std::uint64_t traversal_ = 0;          // graph: epoch counter
  std::uint64_t sweep_cursor_ = 0;       // mltrain: dataset page cursor
  double sweep_carry_ = 0.0;
  std::vector<sim::PageTouch> touches_;  // kvstore: one quantum's Zipf draws
  std::optional<ZipfSampler> zipf_;      // kvstore: ranks over the value log
};

/// True if `pattern` is one of the scenario kinds served by this source.
bool IsScenarioPattern(PatternKind pattern);

}  // namespace daos::workload
