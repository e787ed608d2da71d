// Tiered-memory placement bench: does access-aware DAMOS migration beat
// static placement and LRU-only demotion?
//
// Grid: 3 workloads (phased / scan / churn hot sets, each bigger than the
// fast tier) x 2 tier geometries (dram+cxl, dram+cxl+file) x 3 placement
// policies:
//
//   static — first-fit placement at fault time, never moved (TierPolicy
//            kNone, no schemes): the fast tier keeps whatever faulted
//            first, forever
//   lru    — static + the kernel-style LRU demotion balancer (TierPolicy
//            kLruDemote): idle fast-tier pages demote, so refaults land
//            fast, but resident-slow hot pages are never promoted
//   damos  — static + migrate_hot/migrate_cold schemes under governor
//            quotas: hot slow pages promote without waiting for a swap
//            round-trip, cold fast pages demote to make room
//
// Reported per cell: workload runtime, the hot-cold mismatch gauge
// (sim.tier.hot_mismatch_permille, last snapshot), slow touches, and the
// migration counters. The headline claim — access-aware placement wins —
// requires damos to beat BOTH baselines on runtime in every cell.
//
// The 18 cells fan out over DAOS_JOBS workers; results print in grid order.
// Results append an entry to BENCH_tiering.json in the working directory.
// Arguments, when given, name the workloads to run (e.g. `tier/scan`): a
// partial grid, which CI's thread-sanitizer leg runs, and which appends no
// trajectory row.
//
// Build & run:  ./build/bench/fig_tiering [workload...]
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "analysis/runner.hpp"
#include "bench/common.hpp"
#include "damos/parser.hpp"
#include "sim/tier.hpp"
#include "util/units.hpp"

namespace {

using namespace daos;

struct GeometryCase {
  const char* name;
  const char* text;  // ParseTierGeometry grammar, as a /tier/geometry write
};

// Both geometries undersize the fast tier against the hot set (72M phased
// window vs 64M/48M dram) and the total against the ~360M RSS, so the
// bottom tier stays under watermark pressure: placement decisions, not
// capacity, separate the policies.
const GeometryCase kGeometries[] = {
    {"dram64M+cxl256M", "dram 64M\ncxl 256M lat=0.6 bw=8G"},
    {"dram48M+cxl96M+file192M",
     "dram 48M\ncxl 96M lat=0.4\nfile 192M lat=2.0 bw=1G"},
};

// The migrate pair: promote anything accessed, demote anything idle >= 2s,
// both capped at 64M per 1s window so promotion can never thrash against
// demotion faster than the governor allows.
constexpr const char* kMigrateSchemes =
    "min max 1 max min max migrate_hot quota_sz=128M quota_reset_ms=1000\n"
    "min max min min 1s max migrate_cold quota_sz=128M quota_reset_ms=1000\n";

workload::WorkloadProfile MakeProfile(const char* name,
                                      workload::PatternKind pattern,
                                      double phase_period_s,
                                      double warm_period_s) {
  workload::WorkloadProfile p;
  p.name = name;
  p.suite = "tier";
  p.data_bytes = 360 * MiB;
  p.runtime_s = 45.0;
  p.mem_boundness = 0.6;
  p.thp_gain = 0.0;
  p.noise = 0.0;
  p.pattern = pattern;
  p.phase_period_s = phase_period_s;
  // Group 0 (hot) is 180M — its moving window does not fit either fast
  // tier; the warm group refaults periodically; the cold tail exists to be
  // swapped, keeping the bottom tier churning.
  p.groups = {{0.5, 0.0, 1.0, 0.3},
              {0.25, warm_period_s, 1.0, 0.3},
              {0.25, -1.0, 1.0, 0.1}};
  return p;
}

std::vector<workload::WorkloadProfile> Workloads() {
  return {
      MakeProfile("tier/phased", workload::PatternKind::kPhased, 5.0, 3.0),
      MakeProfile("tier/scan", workload::PatternKind::kScan, 20.0, 3.0),
      MakeProfile("tier/churn", workload::PatternKind::kPhased, 2.5, 1.0),
  };
}

struct Cell {
  std::string workload;
  std::string geometry;
  std::string policy;
  double runtime_s = 0.0;
  double mismatch_permille = 0.0;  // sim.tier.hot_mismatch_permille gauge
  double slow_touches = 0.0;
  double promoted = 0.0;
  double demoted = 0.0;
  std::uint64_t major_faults = 0;
};

struct CellKey {
  const workload::WorkloadProfile* profile;
  const GeometryCase* geometry;
  const sim::TierGeometry* tiers;
  const char* policy;
};

// Runs on a runner worker: everything it reads was parsed on the main
// thread, and everything it writes is its own result.
Cell RunCell(const CellKey& key, const std::vector<damos::Scheme>& migrate) {
  analysis::ExperimentOptions options = bench::DefaultOptions(/*seed=*/11);
  options.apply_runtime_noise = false;
  options.tiers = *key.tiers;

  analysis::Config config = analysis::Config::kBaseline;
  const std::vector<damos::Scheme>* schemes = nullptr;
  if (std::string_view(key.policy) == "lru") {
    options.tier_policy = sim::TierPolicy::kLruDemote;
  } else if (std::string_view(key.policy) == "damos") {
    schemes = &migrate;
    config = analysis::Config::kSchemes;
  }

  const analysis::ExperimentResult result =
      analysis::RunWorkload(*key.profile, config, options, schemes);

  Cell cell;
  cell.workload = key.profile->name;
  cell.geometry = key.geometry->name;
  cell.policy = key.policy;
  cell.runtime_s = result.runtime_s;
  cell.mismatch_permille =
      result.telemetry.Value("sim.tier.hot_mismatch_permille");
  cell.slow_touches = result.telemetry.Value("sim.tier.slow_touches");
  cell.promoted = result.telemetry.Value("sim.tier.promoted_pages");
  cell.demoted = result.telemetry.Value("sim.tier.demoted_pages");
  cell.major_faults = result.major_faults;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("fig_tiering",
                     "access-aware DAMOS migration vs static / LRU-demote "
                     "placement across tier geometries");

  // Parse every input once, before the fan-out, so a rejected one exits
  // from the main thread.
  std::vector<sim::TierGeometry> tiers(std::size(kGeometries));
  for (std::size_t g = 0; g < tiers.size(); ++g) {
    std::string error;
    if (!sim::ParseTierGeometry(kGeometries[g].text, &tiers[g], &error)) {
      std::fprintf(stderr, "geometry %s rejected: %s\n", kGeometries[g].name,
                   error.c_str());
      return 1;
    }
  }
  const damos::ParseResult migrate = damos::ParseSchemes(kMigrateSchemes);
  if (!migrate.errors.empty()) {
    std::fprintf(stderr, "migrate schemes rejected: line %d: %s\n",
                 migrate.errors[0].line_number,
                 migrate.errors[0].message.c_str());
    return 1;
  }

  std::vector<workload::WorkloadProfile> workloads = Workloads();
  if (argc > 1) {
    std::vector<workload::WorkloadProfile> chosen;
    for (int a = 1; a < argc; ++a) {
      const auto it = std::find_if(
          workloads.begin(), workloads.end(),
          [&](const workload::WorkloadProfile& p) { return p.name == argv[a]; });
      if (it == workloads.end()) {
        std::fprintf(stderr, "unknown workload %s\n", argv[a]);
        return 1;
      }
      chosen.push_back(*it);
    }
    workloads = std::move(chosen);
  }
  const char* policies[] = {"static", "lru", "damos"};
  std::vector<CellKey> keys;
  for (const workload::WorkloadProfile& profile : workloads) {
    for (std::size_t g = 0; g < tiers.size(); ++g) {
      for (const char* policy : policies)
        keys.push_back({&profile, &kGeometries[g], &tiers[g], policy});
    }
  }
  std::vector<Cell> cells(keys.size());
  analysis::ParallelRunner runner;
  runner.ForEach(keys.size(), [&](std::size_t i) {
    cells[i] = RunCell(keys[i], migrate.schemes);
  });

  std::printf("%-12s %-24s %-7s %10s %9s %13s %10s %10s %8s\n", "workload",
              "geometry", "policy", "runtime_s", "mismatch", "slow_touches",
              "promoted", "demoted", "majflt");
  int wins = 0;
  int total = 0;
  for (std::size_t i = 0; i < cells.size(); i += 3) {
    const Cell& st = cells[i];
    const Cell& lru = cells[i + 1];
    const Cell& da = cells[i + 2];
    for (std::size_t k = i; k < i + 3; ++k) {
      const Cell& c = cells[k];
      std::printf("%-12s %-24s %-7s %10.2f %8.0f\xE2\x80\xB0 %13.0f %10.0f "
                  "%10.0f %8llu\n",
                  c.workload.c_str(), c.geometry.c_str(), c.policy.c_str(),
                  c.runtime_s, c.mismatch_permille, c.slow_touches,
                  c.promoted, c.demoted,
                  static_cast<unsigned long long>(c.major_faults));
    }
    ++total;
    const bool win =
        da.runtime_s < st.runtime_s && da.runtime_s < lru.runtime_s;
    if (win) ++wins;
    std::printf("  -> damos %s (%.2fs vs static %.2fs, lru %.2fs)\n",
                win ? "wins" : "LOSES", da.runtime_s, st.runtime_s,
                lru.runtime_s);
  }
  std::printf("\ndamos wins %d / %d cells\n", wins, total);

  std::string row;
  AppendF(row,
          "{\"bench\": \"fig_tiering\", \"damos_wins\": %d, "
          "\"cells_total\": %d, \"cells\": [\n",
          wins, total);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    AppendF(row,
            "    {\"workload\": \"%s\", \"geometry\": \"%s\", \"policy\": "
            "\"%s\", \"runtime_s\": %.3f, \"mismatch_permille\": %.0f, "
            "\"slow_touches\": %.0f, \"promoted_pages\": %.0f, "
            "\"demoted_pages\": %.0f, \"major_faults\": %llu}%s\n",
            c.workload.c_str(), c.geometry.c_str(), c.policy.c_str(),
            c.runtime_s, c.mismatch_permille, c.slow_touches, c.promoted,
            c.demoted, static_cast<unsigned long long>(c.major_faults),
            i + 1 < cells.size() ? "," : "");
  }
  row += "  ]}";
  const bool written =
      argc > 1 || bench::AppendTrajectory("BENCH_tiering.json", row);
  return written && wins == total ? 0 : 1;
}
