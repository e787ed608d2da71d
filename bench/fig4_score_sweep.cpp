// Figure 4: scores of the proactive reclamation scheme for varying
// aggressiveness (min_age 0..60 s) on the Figure-4 workloads and the three
// Table-2 machines.
//
// Prints, per workload, one row per min_age with score.i / score.m /
// score.z (mean and, with repeats, stddev), then the classified score
// pattern per machine — the empirical check of the Figure 3 patterns
// (paper Conclusion-1).
//
// The claim EXPERIMENTS.md makes is a check: the program exits 1, naming
// the pattern on stderr, when one of the four patterns the sweep is said to
// produce (rising, peak-ends-positive, peak-ends-negative, falling) never
// occurs.
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "analysis/patterns.hpp"
#include "analysis/report.hpp"
#include "analysis/runner.hpp"
#include "autotune/score.hpp"
#include "bench/common.hpp"
#include "util/units.hpp"
#include "util/stats.hpp"

namespace {

using namespace daos;

std::vector<SimTimeUs> MinAges() {
  std::vector<SimTimeUs> ages;
  if (bench::FullMode()) {
    for (int s = 0; s <= 60; ++s) ages.push_back(s * kUsPerSec);
  } else {
    for (int s : {0, 5, 10, 20, 30, 45, 60}) ages.push_back(s * kUsPerSec);
  }
  return ages;
}

}  // namespace

int main() {
  bench::PrintHeader("Figure 4",
                     "prcl score vs min_age across workloads and machines");
  const auto hosts = bench::Hosts();
  const auto ages = MinAges();
  const int repeats = bench::FullMode() ? 3 : 1;
  const auto names = bench::WithScenarios(bench::BenchWorkloads(8));
  std::printf("workloads: %zu, machines: %zu, min_age points: %zu, "
              "repeats: %d\n\n",
              names.size(), hosts.size(), ages.size(), repeats);

  std::set<analysis::ScorePattern> seen;
  for (const std::string& name : names) {
    const workload::WorkloadProfile profile =
        bench::CapSize(*workload::FindProfile(name));
    std::printf("--- %s (runtime %.0fs, %s mapped)\n", name.c_str(),
                profile.runtime_s,
                FormatSize(profile.data_bytes).c_str());
    std::printf("%8s", "min_age");
    for (const auto& host : hosts)
      std::printf("  score.%c  sd.%c", host.name[0], host.name[0]);
    std::printf("\n");

    // One grid per workload: host x repeat x (baseline + one run per
    // min_age), all independent — submitted as a single batch so the
    // runner can spread the whole sweep over DAOS_JOBS workers. Results
    // come back in submission order, so the layout below is positional.
    analysis::ParallelRunner runner;
    std::vector<analysis::RunSpec> specs;
    for (const auto& host : hosts) {
      analysis::ExperimentOptions opt = bench::DefaultOptions();
      opt.host = host;
      for (int rep = 0; rep < repeats; ++rep) {
        opt.seed = 100 * rep + 1;
        analysis::RunSpec base;
        base.profile = profile;
        base.options = opt;
        specs.push_back(base);
        for (const SimTimeUs age : ages) {
          analysis::RunSpec s;
          s.profile = profile;
          s.config = analysis::Config::kSchemes;
          s.options = opt;
          s.schemes = analysis::PrclSchemes(age);
          specs.push_back(s);
        }
      }
    }
    const auto results = runner.Run(specs);

    // scores[host][age_index] = mean score over repeats.
    std::map<std::string, std::vector<double>> mean_scores;
    std::size_t next = 0;
    for (const auto& host : hosts) {
      std::vector<std::vector<double>> per_age(ages.size());
      for (int rep = 0; rep < repeats; ++rep) {
        const auto& base = results[next++];
        for (std::size_t i = 0; i < ages.size(); ++i) {
          const auto& run = results[next++];
          per_age[i].push_back(autotune::RawScore(
              {run.runtime_s, run.avg_rss_bytes},
              {base.runtime_s, base.avg_rss_bytes}));
        }
      }
      auto& means = mean_scores[host.name];
      for (auto& samples : per_age) means.push_back(Mean(samples));
      // Stash stddevs in-place for printing below.
      for (std::size_t i = 0; i < ages.size(); ++i)
        per_age[i].push_back(Stdev(per_age[i]));
      mean_scores[host.name + "/sd"] = {};
      for (auto& samples : per_age)
        mean_scores[host.name + "/sd"].push_back(samples.back());
    }

    for (std::size_t i = 0; i < ages.size(); ++i) {
      std::printf("%7llus", static_cast<unsigned long long>(
                                ages[i] / kUsPerSec));
      for (const auto& host : hosts) {
        std::printf("  %7.2f  %4.2f", mean_scores[host.name][i],
                    mean_scores[host.name + "/sd"][i]);
      }
      std::printf("\n");
    }
    // Classified pattern: scores ordered by increasing aggressiveness,
    // i.e. decreasing min_age ("aggressiveness increases right to left").
    std::printf("pattern:");
    for (const auto& host : hosts) {
      std::vector<double> by_aggr(mean_scores[host.name].rbegin(),
                                  mean_scores[host.name].rend());
      const analysis::ScorePattern pattern =
          analysis::ClassifyScores(by_aggr, 2.0);
      seen.insert(pattern);
      std::printf("  %s=%s", host.name.c_str(),
                  std::string(analysis::ScorePatternName(pattern)).c_str());
    }
    std::printf("\n\n");
  }

  int misses = 0;
  for (const analysis::ScorePattern pattern :
       {analysis::ScorePattern::kRising,
        analysis::ScorePattern::kPeakEndsPositive,
        analysis::ScorePattern::kPeakEndsNegative,
        analysis::ScorePattern::kFalling}) {
    if (seen.contains(pattern)) continue;
    ++misses;
    std::fprintf(stderr, "claim failed: pattern %s never occurred\n",
                 std::string(analysis::ScorePatternName(pattern)).c_str());
  }
  return misses == 0 ? 0 : 1;
}
