// Chaos soak: how fast can the campaign engine explore fault schedules,
// and do the cross-layer oracles hold under sustained randomized chaos?
//
// For each scenario the engine runs a block of generated campaigns through
// the work-stealing runner and reports campaigns/s, total faults injected,
// and the oracle pass rate. A synthetic known-bad campaign then times the
// full violation path: detect -> delta-debug -> minimized one-line repro.
//
// Quick mode soaks a small block per scenario; DAOS_BENCH_FULL=1 multiplies
// the block size 8x. Arguments override the defaults for CI:
//
//   chaos_soak [campaigns_per_scenario] [master_seed ...]
//
// runs the given block size once per listed master seed (fixed seed lists
// keep the CI step bounded and reproducible). Any oracle violation prints
// its minimized repro line and makes the bench exit 1.
//
// Results append a machine-readable entry to BENCH_chaos.json in the
// working directory (one entry per run).
//
// Build & run:  ./build/bench/chaos_soak
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "chaos/engine.hpp"

namespace {

using namespace daos;

struct SoakResult {
  std::uint64_t campaigns = 0;
  std::uint64_t violations = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_passes = 0;
  double wall_s = 0.0;
  std::vector<std::string> repros;
};

SoakResult SoakScenario(const std::string& scenario, std::size_t campaigns,
                        std::uint64_t master_seed) {
  chaos::ChaosConfig config;
  config.scenario = scenario;
  config.master_seed = master_seed;
  chaos::ChaosEngine engine(config);

  const auto t0 = bench::Clock::now();
  const std::vector<chaos::CampaignRun> runs = engine.RunNext(campaigns);
  const auto t1 = bench::Clock::now();

  SoakResult r;
  r.campaigns = engine.campaigns();
  r.violations = engine.violations();
  r.faults_fired = engine.faults_fired();
  r.wall_s = bench::Seconds(t0, t1);
  for (const auto& [name, tally] : engine.oracle_tallies()) {
    r.oracle_checks += tally.pass + tally.fail;
    r.oracle_passes += tally.pass;
  }
  for (const chaos::CampaignRun& run : runs) {
    if (!run.repro.empty()) r.repros.push_back(run.repro);
  }
  return r;
}

double TimeShrinkDemo(std::string* repro) {
  // The known-bad mechanism: the synthetic probe point fires under three
  // noise entries; the engine must catch it and minimize to one entry.
  chaos::Campaign bad;
  bad.seed = 4242;
  bad.scenario = "workload";
  std::string error;
  if (!chaos::ParseCampaign("chaos.synthetic once=2; swap.write_error p=0.2; "
                            "daemon.overrun every=7; tier.migrate_fail once=9",
                            &bad, &error)) {
    std::fprintf(stderr, "shrink demo campaign rejected: %s\n", error.c_str());
    return 0.0;
  }
  chaos::ChaosEngine engine(chaos::ChaosConfig{});
  const auto t0 = bench::Clock::now();
  const chaos::CampaignRun run = engine.RunCampaign(bad);
  const auto t1 = bench::Clock::now();
  *repro = run.repro;
  if (run.minimal.entries.size() != 1) {
    std::fprintf(stderr, "shrink demo did not minimize to 1 entry\n");
  }
  return bench::Seconds(t0, t1);
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("chaos_soak",
                     "randomized fault campaigns vs cross-layer oracles");

  std::size_t per_scenario = bench::FullMode() ? 128 : 16;
  if (argc >= 2) per_scenario = std::strtoull(argv[1], nullptr, 10);
  std::vector<std::uint64_t> seeds;
  for (int i = 2; i < argc; ++i)
    seeds.push_back(std::strtoull(argv[i], nullptr, 10));
  if (seeds.empty()) seeds.push_back(20220627);

  std::printf("%-10s %10s %10s %12s %10s %12s\n", "scenario", "campaigns",
              "violations", "faults", "pass_rate", "campaigns/s");

  std::uint64_t campaigns = 0, violations = 0, faults = 0;
  std::uint64_t checks = 0, passes = 0;
  double wall_s = 0.0;
  std::vector<std::string> repros;
  for (const std::string_view scenario : chaos::ScenarioNames()) {
    SoakResult total;
    for (const std::uint64_t seed : seeds) {
      const SoakResult r =
          SoakScenario(std::string(scenario), per_scenario, seed);
      total.campaigns += r.campaigns;
      total.violations += r.violations;
      total.faults_fired += r.faults_fired;
      total.oracle_checks += r.oracle_checks;
      total.oracle_passes += r.oracle_passes;
      total.wall_s += r.wall_s;
      for (const std::string& line : r.repros) total.repros.push_back(line);
    }
    const double rate =
        total.oracle_checks == 0
            ? 1.0
            : static_cast<double>(total.oracle_passes) /
                  static_cast<double>(total.oracle_checks);
    std::printf("%-10.*s %10llu %10llu %12llu %9.4f%% %12.1f\n",
                static_cast<int>(scenario.size()), scenario.data(),
                static_cast<unsigned long long>(total.campaigns),
                static_cast<unsigned long long>(total.violations),
                static_cast<unsigned long long>(total.faults_fired),
                100.0 * rate,
                total.wall_s > 0.0
                    ? static_cast<double>(total.campaigns) / total.wall_s
                    : 0.0);
    campaigns += total.campaigns;
    violations += total.violations;
    faults += total.faults_fired;
    checks += total.oracle_checks;
    passes += total.oracle_passes;
    wall_s += total.wall_s;
    for (const std::string& line : total.repros) repros.push_back(line);
  }

  std::string demo_repro;
  const double shrink_s = TimeShrinkDemo(&demo_repro);
  std::printf("\nshrink demo     %.3f s  ->  %s\n", shrink_s,
              demo_repro.c_str());

  const double pass_rate =
      checks == 0 ? 1.0
                  : static_cast<double>(passes) / static_cast<double>(checks);
  std::string row;
  AppendF(row,
          "{\"bench\": \"chaos_soak\", \"campaigns\": %llu, "
          "\"violations\": %llu, \"faults_fired\": %llu, "
          "\"oracle_pass_rate\": %.6f, \"campaigns_per_s\": %.2f, "
          "\"shrink_demo_s\": %.3f}",
          static_cast<unsigned long long>(campaigns),
          static_cast<unsigned long long>(violations),
          static_cast<unsigned long long>(faults), pass_rate,
          wall_s > 0.0 ? static_cast<double>(campaigns) / wall_s : 0.0,
          shrink_s);
  if (!bench::AppendTrajectory("BENCH_chaos.json", row)) return 1;

  if (!repros.empty()) {
    std::printf("\nORACLE VIOLATIONS (%zu) — minimized repros:\n",
                repros.size());
    for (const std::string& line : repros) std::printf("  %s\n", line.c_str());
    return 1;
  }
  std::printf("all oracles held across %llu campaigns\n",
              static_cast<unsigned long long>(campaigns));
  return 0;
}
