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
//
// On each machine the first workload is also tuned through the paper's
// §3.6 deployment shape, dbgfs::DbgfsRuntime (a fresh guest per trial,
// the scheme written through debugfs, RSS polled from procfs), and checked
// against the direct trials: its tuned min_age must land within one sample
// step of theirs, or its scheme must score at least the manual scheme on
// the direct trial. A miss exits 1 and names the cell on stderr; stdout
// does not change.
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/report.hpp"
#include "analysis/runner.hpp"
#include "autotune/tuner.hpp"
#include "bench/common.hpp"
#include "dbgfs/runtime.hpp"
#include "util/stats.hpp"
#include "workload/generator.hpp"

namespace {

using namespace daos;

/// Auto: tune min_age over 0..60 s with 10 samples.
autotune::TunerConfig TunerConfigFor(std::size_t host_idx) {
  autotune::TunerConfig cfg;
  cfg.nr_samples = 10;
  cfg.min_age_lo = 0;
  cfg.min_age_hi = 60 * kUsPerSec;
  cfg.seed = 13 + host_idx;
  return cfg;
}

/// Boots the guest RunWorkload would build for `profile` under `opt`, with
/// the debugfs and procfs views mounted.
dbgfs::EnvFactory GuestFactory(const workload::WorkloadProfile& profile,
                               const analysis::ExperimentOptions& opt) {
  return [profile, opt] {
    auto env = std::make_unique<dbgfs::TrialEnv>();
    env->system = std::make_unique<sim::System>(
        opt.host.GuestOf(), opt.swap, sim::ThpMode::kNever, opt.quantum);
    env->workload_pid =
        env->system
            ->AddProcess(workload::ToProcessParams(profile),
                         workload::MakeSource(profile, opt.seed))
            .pid();
    env->damon =
        std::make_unique<dbgfs::DamonDbgfs>(env->system.get(), &env->fs);
    env->proc = std::make_unique<dbgfs::ProcFs>(env->system.get(), &env->fs);
    return env;
  };
}

}  // namespace

int main() {
  bench::PrintHeader("Figure 8", "manual vs auto-tuned prcl per machine");

  const auto hosts = bench::Hosts();
  const auto names = bench::BenchWorkloads(bench::FullMode() ? 16 : 5);

  struct Agg {
    RunningStats man_perf, man_mem, man_score;
    RunningStats auto_perf, auto_mem, auto_score;
  };
  std::vector<Agg> agg(hosts.size());

  // Each (workload, machine) cell — baseline, manual run, tuner loop,
  // tuned run, and on the first workload the runtime's tuner loop — is
  // self-contained; the tuner's trials inside a cell are
  // inherently sequential (each sample depends on the previous score) but
  // the cells themselves fan out over DAOS_JOBS workers. Results land in
  // per-cell slots; aggregation and printing stay in submission order.
  struct Cell {
    std::size_t name_idx, host_idx;
    double man_perf = 0, aut_perf = 0, man_mem = 0, aut_mem = 0;
    double man_score = 0, aut_score = 0;
    SimTimeUs tuned_min_age = 0;
    // The first workload's cells are tuned through the runtime as well.
    SimTimeUs runtime_min_age = 0;
    double runtime_score = 0;
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

    const autotune::TrialRunner trial = analysis::WorkloadTrial(profile, opt);

    // Manual: Listing-3 prcl, 5 s.
    damos::Scheme manual = damos::Scheme::Prcl(5 * kUsPerSec);
    const autotune::TrialMeasurement man = trial(&manual);

    const autotune::TunerConfig cfg = TunerConfigFor(h);
    const autotune::TunerResult tuned =
        autotune::AutoTuner(cfg).Tune(damos::Scheme::Prcl(), trial);
    const autotune::TrialMeasurement aut = trial(&tuned.tuned);

    const autotune::TrialMeasurement& bl = tuned.baseline;
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
    cell.tuned_min_age = tuned.best_min_age;

    if (cell.name_idx != 0) return;
    dbgfs::DbgfsRuntime runtime(GuestFactory(profile, opt));
    const autotune::TunerResult via = autotune::AutoTuner(cfg).Tune(
        damos::Scheme::Prcl(),
        [&](const damos::Scheme* s) { return runtime.RunOnce(s); });
    autotune::ScoreFunction via_fn;
    cell.runtime_min_age = via.best_min_age;
    cell.runtime_score = via_fn.Score(trial(&via.tuned), bl);
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
                cell.man_score, cell.aut_score,
                static_cast<double>(cell.tuned_min_age) / kUsPerSec);
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
  const autotune::TunerConfig cfg = TunerConfigFor(0);
  const SimTimeUs step = (cfg.min_age_hi - cfg.min_age_lo) / cfg.nr_samples;
  for (const Cell& cell : cells) {
    if (cell.name_idx != 0) continue;
    const SimTimeUs apart = cell.runtime_min_age > cell.tuned_min_age
                                ? cell.runtime_min_age - cell.tuned_min_age
                                : cell.tuned_min_age - cell.runtime_min_age;
    if (apart <= step || cell.runtime_score >= cell.man_score) continue;
    ++misses;
    std::fprintf(stderr,
                 "claim failed: %s on %s: the runtime tuned min_age %.2fs, "
                 "the direct trials %.2fs (more than %.0fs apart), and its "
                 "score %.2f is below the manual %.2f\n",
                 names[cell.name_idx].c_str(),
                 hosts[cell.host_idx].name.c_str(),
                 static_cast<double>(cell.runtime_min_age) / kUsPerSec,
                 static_cast<double>(cell.tuned_min_age) / kUsPerSec,
                 static_cast<double>(step) / kUsPerSec, cell.runtime_score,
                 cell.man_score);
  }
  return misses == 0 ? 0 : 1;
}
