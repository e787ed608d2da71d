// Figure 8: the manually optimized prcl scheme vs auto-tuned schemes on
// the three machines — performance, memory efficiency, and score.
//
// The manual scheme is the paper's Listing-3 prcl (min_age = 5 s, tuned by
// hand on the i3.metal guest); the auto-tuned schemes come from the
// Auto-tuning Runtime with the paper's 10-sample budget and the Listing-2
// score function.
//
// The headline claim is a check: the program exits 1, naming the machine on
// stderr, when a machine's average auto-tuned score or performance is not
// above the manual scheme's.
#include <cstdio>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/runner.hpp"
#include "autotune/tuner.hpp"
#include "bench/common.hpp"
#include "util/stats.hpp"

int main() {
  using namespace daos;
  bench::PrintHeader("Figure 8", "manual vs auto-tuned prcl per machine");

  const auto hosts = bench::Hosts();
  const auto names = bench::BenchWorkloads(bench::FullMode() ? 16 : 5);

  struct Agg {
    RunningStats man_perf, man_mem, man_score;
    RunningStats auto_perf, auto_mem, auto_score;
  };
  std::vector<Agg> agg(hosts.size());

  // Each (workload, machine) cell — baseline, manual run, tuner loop,
  // tuned run — is self-contained; the tuner's trials inside a cell are
  // inherently sequential (each sample depends on the previous score) but
  // the cells themselves fan out over DAOS_JOBS workers. Results land in
  // per-cell slots; aggregation and printing stay in submission order.
  struct Cell {
    std::size_t name_idx, host_idx;
    double man_perf = 0, aut_perf = 0, man_mem = 0, aut_mem = 0;
    double man_score = 0, aut_score = 0;
    double tuned_min_age_s = 0;
  };
  std::vector<Cell> cells;
  for (std::size_t n = 0; n < names.size(); ++n)
    for (std::size_t h = 0; h < hosts.size(); ++h) cells.push_back({n, h});

  analysis::ParallelRunner runner;
  runner.ForEach(cells.size(), [&](std::size_t i) {
    Cell& cell = cells[i];
    const workload::WorkloadProfile profile =
        bench::CapSize(*workload::FindProfile(names[cell.name_idx]));
    const std::size_t h = cell.host_idx;
    analysis::ExperimentOptions opt = bench::DefaultOptions();
    opt.host = hosts[h];

    const auto base =
        analysis::RunWorkload(profile, analysis::Config::kBaseline, opt);
    auto trial = [&](const damos::Scheme* scheme)
        -> autotune::TrialMeasurement {
      if (scheme == nullptr) return {base.runtime_s, base.avg_rss_bytes};
      const std::vector<damos::Scheme> schemes{*scheme};
      const auto r = analysis::RunWorkload(
          profile, analysis::Config::kSchemes, opt, &schemes);
      return {r.runtime_s, r.avg_rss_bytes};
    };

    // Manual: Listing-3 prcl, 5 s.
    damos::Scheme manual = damos::Scheme::Prcl(5 * kUsPerSec);
    const autotune::TrialMeasurement man = trial(&manual);

    // Auto: tune min_age over 0..60 s with 10 samples.
    autotune::TunerConfig cfg;
    cfg.nr_samples = 10;
    cfg.min_age_lo = 0;
    cfg.min_age_hi = 60 * kUsPerSec;
    cfg.seed = 13 + h;
    autotune::AutoTuner tuner(cfg);
    const autotune::TunerResult tuned =
        tuner.Tune(damos::Scheme::Prcl(), trial);
    const autotune::TrialMeasurement aut = trial(&tuned.tuned);

    const autotune::TrialMeasurement bl{base.runtime_s, base.avg_rss_bytes};
    cell.man_perf = bl.runtime_s / man.runtime_s;
    cell.aut_perf = bl.runtime_s / aut.runtime_s;
    cell.man_mem = bl.rss_bytes / man.rss_bytes;
    cell.aut_mem = bl.rss_bytes / aut.rss_bytes;
    // Scores via the paper's Listing-2 function: SLA violations (>10 %
    // performance drop) are penalized, which is exactly what the manual
    // scheme suffers on mistuned workloads.
    autotune::ScoreFunction man_fn, aut_fn;
    cell.man_score = man_fn.Score(man, bl);
    cell.aut_score = aut_fn.Score(aut, bl);
    cell.tuned_min_age_s =
        static_cast<double>(tuned.best_min_age) / kUsPerSec;
  });

  std::printf("%-26s %-10s %10s %10s %10s %10s %10s %10s\n", "workload",
              "machine", "man.perf", "auto.perf", "man.mem", "auto.mem",
              "man.score", "auto.score");
  for (const Cell& cell : cells) {
    const std::size_t h = cell.host_idx;
    agg[h].man_perf.Add(cell.man_perf);
    agg[h].auto_perf.Add(cell.aut_perf);
    agg[h].man_mem.Add(cell.man_mem);
    agg[h].auto_mem.Add(cell.aut_mem);
    agg[h].man_score.Add(cell.man_score);
    agg[h].auto_score.Add(cell.aut_score);

    std::printf("%-26s %-10s %10.3f %10.3f %10.3f %10.3f %10.2f %10.2f"
                "   (tuned min_age %.0fs)\n",
                names[cell.name_idx].c_str(), hosts[h].name.c_str(),
                cell.man_perf, cell.aut_perf, cell.man_mem, cell.aut_mem,
                cell.man_score, cell.aut_score, cell.tuned_min_age_s);
  }

  std::printf("\naverages per machine:\n");
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const double man_drop = 1.0 - agg[h].man_perf.Mean();
    const double auto_drop = 1.0 - agg[h].auto_perf.Mean();
    std::printf(
        "  %-10s man: perf %.3f mem %.3f score %6.2f | auto: perf %.3f mem "
        "%.3f score %6.2f | slowdown removed: %.0f%%\n",
        hosts[h].name.c_str(), agg[h].man_perf.Mean(), agg[h].man_mem.Mean(),
        agg[h].man_score.Mean(), agg[h].auto_perf.Mean(),
        agg[h].auto_mem.Mean(), agg[h].auto_score.Mean(),
        man_drop > 0 ? 100.0 * (man_drop - auto_drop) / man_drop : 0.0);
  }
  std::printf(
      "\n(paper: auto-tuning removes 85-94%% of the manual scheme's "
      "performance drop at somewhat lower memory savings, improving the "
      "score by 6-20%%)\n");

  int misses = 0;
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const auto check = [&](const RunningStats& aut, const RunningStats& man,
                           const char* what) {
      if (aut.Mean() > man.Mean()) return;
      ++misses;
      std::fprintf(stderr,
                   "claim failed: %s: auto-tuned average %s %.3f not above "
                   "manual %.3f\n",
                   hosts[h].name.c_str(), what, aut.Mean(), man.Mean());
    };
    check(agg[h].auto_score, agg[h].man_score, "score");
    check(agg[h].auto_perf, agg[h].man_perf, "perf");
  }
  return misses == 0 ? 0 : 1;
}
