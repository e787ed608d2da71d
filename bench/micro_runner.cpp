// Runner micro-bench: what does the parallel experiment runner buy, and
// does it change the results?
//
// Runs a 48-run grid (5 configs x 4 seeds x 2 workloads — one synthetic,
// one scenario — plus 8 tiered-machine runs: LRU-demote placement and
// DAMOS migrate schemes x 4 seeds) through ParallelRunner at 1, 2, and N
// worker threads
// (N = DAOS_JOBS or the hardware concurrency), records the wall-clock
// speedup, and verifies the results are bit-identical across thread
// counts — the determinism contract the test suite also asserts. The grid
// is wide enough that per-run setup noise stops masking the scaling.
//
// Results append a machine-readable entry to BENCH_runner.json in the
// working directory (same trajectory-array schema as BENCH_governor.json).
//
// Build & run:  ./build/bench/micro_runner
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "bench/common.hpp"
#include "damos/parser.hpp"
#include "sim/tier.hpp"
#include "util/units.hpp"

namespace {

using namespace daos;

workload::WorkloadProfile GridProfile() {
  workload::WorkloadProfile p;
  p.name = "micro/runner";
  p.suite = "bench";
  p.data_bytes = 128 * MiB;
  p.runtime_s = 10;
  p.noise = 0.0;
  p.thp_gain = 0.15;
  p.groups = {
      workload::GroupSpec{0.30, 0.0, 1.0, 0.3},
      workload::GroupSpec{0.20, 3.0, 1.0, 0.3},
      workload::GroupSpec{0.50, -1.0, 0.6, 0.2},
  };
  p.zipf_touches_per_s = 8000;
  return p;
}

// A scenario-library rider: proves application-shaped sources hold the
// same determinism contract under the parallel runner.
workload::WorkloadProfile ScenarioGridProfile() {
  workload::WorkloadProfile p = *workload::FindProfile("scenario/antimerge");
  p.data_bytes = 96 * MiB;
  p.runtime_s = 8;
  p.noise = 0.0;
  return p;
}

std::vector<analysis::RunSpec> BuildGrid() {
  const workload::WorkloadProfile profiles[] = {GridProfile(),
                                                ScenarioGridProfile()};
  const analysis::Config configs[] = {
      analysis::Config::kBaseline, analysis::Config::kRec,
      analysis::Config::kThp, analysis::Config::kEthp,
      analysis::Config::kPrcl};
  std::vector<analysis::RunSpec> specs;
  for (const workload::WorkloadProfile& profile : profiles) {
    for (const analysis::Config config : configs) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        analysis::RunSpec spec;
        spec.profile = profile;
        spec.config = config;
        spec.options.max_time = 120 * kUsPerSec;
        spec.options.apply_runtime_noise = false;
        spec.options.seed = seed;
        specs.push_back(spec);
      }
    }
  }
  // Tiered riders: the determinism contract must hold with the tier
  // substrate armed too — once via the LRU balancer, once via DAMOS
  // migrate schemes under governor quotas.
  sim::TierGeometry tiers;
  std::string error;
  if (!sim::ParseTierGeometry("dram 32M\ncxl 256M lat=0.6 bw=8G", &tiers,
                              &error)) {
    std::fprintf(stderr, "tier grid geometry rejected: %s\n", error.c_str());
    std::exit(1);
  }
  const damos::ParseResult migrate = damos::ParseSchemes(
      "min max 1 max min max migrate_hot quota_sz=64M quota_reset_ms=1000\n"
      "min max min min 1s max migrate_cold quota_sz=64M "
      "quota_reset_ms=1000\n");
  if (!migrate.ok()) {
    std::fprintf(stderr, "tier grid schemes rejected\n");
    std::exit(1);
  }
  for (const bool damos_run : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      analysis::RunSpec spec;
      spec.profile = GridProfile();
      spec.options.max_time = 120 * kUsPerSec;
      spec.options.apply_runtime_noise = false;
      spec.options.seed = seed;
      spec.options.tiers = tiers;
      if (damos_run) {
        spec.config = analysis::Config::kSchemes;
        spec.schemes = migrate.schemes;
      } else {
        spec.config = analysis::Config::kBaseline;
        spec.options.tier_policy = sim::TierPolicy::kLruDemote;
      }
      specs.push_back(spec);
    }
  }
  return specs;
}

bool Identical(const analysis::ExperimentResult& a,
               const analysis::ExperimentResult& b) {
  if (a.runtime_s != b.runtime_s || a.finished != b.finished ||
      a.avg_rss_bytes != b.avg_rss_bytes ||
      a.peak_rss_bytes != b.peak_rss_bytes ||
      a.major_faults != b.major_faults ||
      a.monitor_cpu_fraction != b.monitor_cpu_fraction ||
      a.interference_s != b.interference_s) {
    return false;
  }
  if (a.scheme_stats.size() != b.scheme_stats.size()) return false;
  for (std::size_t i = 0; i < a.scheme_stats.size(); ++i) {
    if (a.scheme_stats[i].nr_tried != b.scheme_stats[i].nr_tried ||
        a.scheme_stats[i].sz_tried != b.scheme_stats[i].sz_tried ||
        a.scheme_stats[i].nr_applied != b.scheme_stats[i].nr_applied ||
        a.scheme_stats[i].sz_applied != b.scheme_stats[i].sz_applied) {
      return false;
    }
  }
  const auto& sa = a.telemetry.samples();
  const auto& sb = b.telemetry.samples();
  if (sa.size() != sb.size()) return false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].name != sb[i].name || sa[i].value != sb[i].value ||
        sa[i].count != sb[i].count) {
      return false;
    }
  }
  return true;
}

struct Level {
  unsigned jobs = 0;
  double wall_s = 0.0;
  double speedup = 1.0;
  bool identical = true;
};

}  // namespace

int main() {
  bench::PrintHeader("micro_runner",
                     "parallel runner wall-clock speedup and determinism");

  const std::vector<analysis::RunSpec> specs = BuildGrid();
  const unsigned n = std::max(analysis::ParallelRunner::JobsFromEnv(), 1u);
  std::vector<unsigned> counts = {1, 2};
  if (std::find(counts.begin(), counts.end(), n) == counts.end())
    counts.push_back(n);
  std::printf("grid: %zu runs (5 configs x 4 seeds x 2 workloads + 8 "
              "tiered); thread counts:", specs.size());
  for (unsigned c : counts) std::printf(" %u", c);
  std::printf("\n\n");

  std::vector<analysis::ExperimentResult> reference;
  std::vector<Level> levels;
  std::printf("%6s %10s %9s %10s\n", "jobs", "wall [s]", "speedup",
              "identical");
  for (const unsigned jobs : counts) {
    analysis::ParallelRunner runner(jobs);
    const auto t0 = bench::Clock::now();
    auto results = runner.Run(specs);
    const auto t1 = bench::Clock::now();

    Level level;
    level.jobs = jobs;
    level.wall_s = bench::Seconds(t0, t1);
    if (reference.empty()) {
      reference = std::move(results);
      level.speedup = 1.0;
    } else {
      level.speedup = levels.front().wall_s / level.wall_s;
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!Identical(reference[i], results[i])) level.identical = false;
      }
    }
    std::printf("%6u %10.2f %8.2fx %10s\n", level.jobs, level.wall_s,
                level.speedup, level.identical ? "yes" : "NO");
    levels.push_back(level);
  }

  bool all_identical = true;
  for (const Level& level : levels) all_identical &= level.identical;
  std::printf("\nresults across thread counts: %s\n",
              all_identical ? "bit-identical" : "MISMATCH (bug!)");

  std::string row;
  AppendF(row, "{\"bench\": \"micro_runner\", \"grid_runs\": %zu, "
          "\"levels\": [\n", specs.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    AppendF(row,
            "    {\"jobs\": %u, \"wall_s\": %.3f, \"speedup\": %.2f, "
            "\"identical\": %s}%s\n",
            levels[i].jobs, levels[i].wall_s, levels[i].speedup,
            levels[i].identical ? "true" : "false",
            i + 1 < levels.size() ? "," : "");
  }
  row += "  ]}";
  const bool written = bench::AppendTrajectory("BENCH_runner.json", row);
  return written && all_identical ? 0 : 1;
}
