// Fleet-scale fig9: the §4.4 serverless population sharded across a fleet
// rollout controller (src/fleet) instead of a single supervised kdamond.
//
// The bench drives the two control-plane paths a production fleet exercises:
//
//   phase A   a healthy canary rollout (PAGEOUT min-age 6s -> 1s) that must
//             ramp canary -> 25% -> 50% -> 100% and promote, trimming the
//             ~90 % cold bloat fleet-wide
//   phase B   a bad rollout (a 100 µs sampling interval that blows the CPU
//             budget) whose health gate must trip on the canary wave and
//             roll every wave shard back from its pre-wave checkpoint
//
// The default (quick) scale is 16 shards x 64 servers = 1024 simulated
// processes; DAOS_BENCH_FULL=1 runs the full 16 x 640 = 10240. Results
// append an entry to BENCH_fleet.json: processes-simulated-per-second and
// the epoch counts both rollouts took to converge.
//
// Build & run:  ./build/bench/fig9_fleet
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "fleet/controller.hpp"
#include "util/units.hpp"

namespace {

using namespace daos;

struct Result {
  std::size_t shards = 0;
  std::size_t processes = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  double proc_sim_per_s = 0.0;
  std::uint64_t rollout_epochs = 0;   // phase A: canary -> promoted
  std::uint64_t rollback_epochs = 0;  // phase B: canary -> rolled back
  bool promoted = false;
  bool rolled_back = false;
};

fleet::FleetConfig MakeConfig() {
  fleet::FleetConfig config;
  config.nr_shards = 16;
  config.workload.nr_processes = bench::FullMode() ? 640 : 64;
  config.workload.rss_per_process = MiB;
  config.workload.cold_touch_period_s = 0;  // deterministic at any scale
  config.machine = {"fleet-shard", 8, 3.0, 2 * GiB};
  config.swap = sim::SwapConfig::File(2 * GiB);
  config.quantum = 20 * kUsPerMs;
  config.epoch = 500 * kUsPerMs;
  config.supervisor.attrs.sampling_interval = 20 * kUsPerMs;
  config.supervisor.attrs.aggregation_interval = 200 * kUsPerMs;
  config.supervisor.checkpoint_interval = 2 * kUsPerSec;
  config.initial_schemes = "min max min min 6s max pageout";
  config.use_env_faults = false;  // the bench pins its own schedule
  return config;
}

Result Run() {
  Result r;
  const fleet::FleetConfig config = MakeConfig();
  fleet::FleetController fleet(config);
  r.shards = fleet.nr_shards();
  r.processes =
      static_cast<std::size_t>(config.workload.nr_processes) * r.shards;

  const auto t0 = bench::Clock::now();
  // Warm up: monitors prime, the population faults its bloat in.
  for (int epoch = 0; epoch < 4; ++epoch) fleet.RunEpoch();

  // Phase A: the healthy rollout.
  fleet::RolloutSpec good;
  good.bundle_text = "scheme min max min min 1s max pageout\n";
  good.canary_frac = 0.125;
  good.ramp = {0.25, 0.5, 1.0};
  good.gate_epochs = 2;
  good.timeout_epochs = 64;
  std::string error;
  std::uint64_t epochs_before = fleet.counters().epochs;
  if (!fleet.StartRollout(good, &error)) {
    std::fprintf(stderr, "phase A rollout rejected: %s\n", error.c_str());
    return r;
  }
  r.promoted = fleet.RunRollout() == fleet::RolloutState::kPromoted;
  r.rollout_epochs = fleet.counters().epochs - epochs_before;

  // Phase B: the bad rollout — a 100 µs sampling interval multiplies the
  // monitor CPU cost past the gate's budget; the canary wave must roll
  // back to its pre-wave checkpoints.
  fleet::RolloutSpec bad;
  bad.bundle_text = "attrs 100 2000 2000000 10 1000\n";
  bad.canary_frac = 0.125;
  bad.ramp = {1.0};
  bad.gate_epochs = 2;
  bad.timeout_epochs = 32;
  bad.max_cpu_overhead = 0.01;
  epochs_before = fleet.counters().epochs;
  if (!fleet.StartRollout(bad, &error)) {
    std::fprintf(stderr, "phase B rollout rejected: %s\n", error.c_str());
    return r;
  }
  r.rolled_back = fleet.RunRollout() == fleet::RolloutState::kRolledBack;
  r.rollback_epochs = fleet.counters().epochs - epochs_before;
  const auto t1 = bench::Clock::now();

  r.sim_seconds = static_cast<double>(fleet.Now()) / kUsPerSec;
  r.wall_seconds = bench::Seconds(t0, t1);
  if (r.wall_seconds > 0.0)
    r.proc_sim_per_s = static_cast<double>(r.processes) * r.sim_seconds /
                       r.wall_seconds;

  std::printf("fig9_fleet%s: %zu shards x %zu procs\n",
              bench::FullMode() ? "" : " (quick)", r.shards,
              r.processes / r.shards);
  std::printf("  phase A: %s after %llu epochs\n",
              r.promoted ? "promoted" : "NOT promoted",
              static_cast<unsigned long long>(r.rollout_epochs));
  std::printf("  phase B: %s after %llu epochs\n",
              r.rolled_back ? "rolled back" : "NOT rolled back",
              static_cast<unsigned long long>(r.rollback_epochs));
  std::printf("  %.1f sim-s in %.2f wall-s -> %.0f proc-sim-s/s\n",
              r.sim_seconds, r.wall_seconds, r.proc_sim_per_s);
  return r;
}

}  // namespace

int main() {
  const Result r = Run();
  std::string row;
  AppendF(row,
          "{\"bench\": \"fig9_fleet\", \"shards\": %zu, "
          "\"processes\": %zu, \"sim_seconds\": %.1f, "
          "\"wall_seconds\": %.2f, \"proc_sim_per_s\": %.0f, "
          "\"rollout_epochs\": %llu, \"rollback_epochs\": %llu, "
          "\"promoted\": %s, \"rolled_back\": %s}",
          r.shards, r.processes, r.sim_seconds, r.wall_seconds,
          r.proc_sim_per_s, static_cast<unsigned long long>(r.rollout_epochs),
          static_cast<unsigned long long>(r.rollback_epochs),
          r.promoted ? "true" : "false", r.rolled_back ? "true" : "false");
  const bool written = bench::AppendTrajectory("BENCH_fleet.json", row);
  return written && r.promoted && r.rolled_back ? 0 : 1;
}
