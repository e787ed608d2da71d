// Lifecycle micro-bench: what do the supervisor's robustness pillars cost?
//
// One supervised kdamond over a 256M heap runs 10 simulated seconds, then
// each control-plane operation is timed host-side in isolation:
//
//   capture   serialize the full monitoring state to checkpoint text
//   parse     checkpoint text -> validated Checkpoint model
//   restore   tear the stack down and rebuild it from the text
//   stage     validate + stage a commit bundle (the /commit write path)
//
// Capture and restore bound how often a deployment can afford periodic
// checkpoints; stage is the latency a reconfiguration writer sees. Before
// timing anything the bench exits 1 unless capture -> restore -> capture
// is the identity and the checkpoint carries at most kRecorderTailMax
// snapshots.
//
// Results append a machine-readable entry to BENCH_lifecycle.json in the
// working directory (one entry per run).
//
// Build & run:  ./build/bench/micro_lifecycle
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "lifecycle/checkpoint.hpp"
#include "lifecycle/supervisor.hpp"
#include "sim/system.hpp"
#include "util/units.hpp"

namespace {

using namespace daos;

constexpr std::uint64_t kHeap = 256 * MiB;
constexpr Addr kHeapStart = 0x10000000;

struct Result {
  std::size_t checkpoint_bytes = 0;
  std::size_t regions = 0;
  std::size_t snapshots = 0;
  double capture_wall_us = 0.0;
  double parse_wall_us = 0.0;
  double restore_wall_us = 0.0;
  double stage_wall_us = 0.0;
};

template <typename Fn>
double TimeAvgUs(int iterations, Fn&& fn) {
  const auto t0 = bench::Clock::now();
  for (int i = 0; i < iterations; ++i) fn();
  return bench::Seconds(t0, bench::Clock::now()) * 1e6 / iterations;
}

Result Run() {
  sim::System system(sim::MachineSpec{"bench", 4, 3.0, 4 * GiB},
                     sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &system.machine(), 3.0);
  space.Map(kHeapStart, kHeap, "heap");
  space.TouchRange(kHeapStart, kHeapStart + kHeap, true, 0);

  lifecycle::KdamondSupervisor supervisor;
  supervisor.AttachTo(system, {&space});
  std::string error;
  supervisor.InstallSchemesFromText(
      "min max min min 2s max pageout quota_sz=32M quota_reset_ms=1000 "
      "prio_weights=3,7,1",
      &error);
  system.Run(10 * kUsPerSec);

  Result r;
  const std::string text = supervisor.CaptureCheckpointText();
  r.checkpoint_bytes = text.size();
  const lifecycle::Checkpoint cp = *lifecycle::ParseCheckpoint(text);
  for (const lifecycle::CheckpointTarget& t : cp.targets)
    r.regions += t.regions.size();
  r.snapshots = cp.recorder_tail.size();
  if (r.snapshots > lifecycle::kRecorderTailMax)
    bench::Die("micro_lifecycle",
               "the checkpoint carries more than kRecorderTailMax snapshots");
  if (!supervisor.RestoreFromText(text, &error) ||
      supervisor.CaptureCheckpointText() != text)
    bench::Die("micro_lifecycle",
               "capture -> restore -> capture is not the identity");

  r.capture_wall_us =
      TimeAvgUs(50, [&] { (void)supervisor.CaptureCheckpointText(); });
  r.parse_wall_us =
      TimeAvgUs(50, [&] { (void)lifecycle::ParseCheckpoint(text); });
  r.restore_wall_us = TimeAvgUs(20, [&] {
    std::string e;
    supervisor.RestoreFromText(text, &e);
  });
  r.stage_wall_us = TimeAvgUs(50, [&] {
    std::string e;
    supervisor.CommitFromText(
        "attrs 5000 100000 1000000 10 1000\n"
        "scheme min max min min 2s max pageout quota_sz=16M "
        "quota_reset_ms=1000 prio_weights=3,7,1\n",
        &e);
  });
  return r;
}

}  // namespace

int main() {
  bench::PrintHeader("micro_lifecycle",
                     "checkpoint capture/parse/restore and commit-stage cost");
  const Result r = Run();
  std::printf("checkpoint      %zu bytes (%zu regions, %zu snapshots)\n",
              r.checkpoint_bytes, r.regions, r.snapshots);
  std::printf("capture         %10.2f µs\n", r.capture_wall_us);
  std::printf("parse           %10.2f µs\n", r.parse_wall_us);
  std::printf("restore         %10.2f µs\n", r.restore_wall_us);
  std::printf("stage commit    %10.2f µs\n", r.stage_wall_us);
  std::string row;
  AppendF(row,
          "{\"bench\": \"micro_lifecycle\", \"heap_bytes\": %llu, "
          "\"checkpoint_bytes\": %zu, \"regions\": %zu, \"snapshots\": %zu, "
          "\"capture_wall_us\": %.2f, \"parse_wall_us\": %.2f, "
          "\"restore_wall_us\": %.2f, \"stage_wall_us\": %.2f}",
          static_cast<unsigned long long>(kHeap), r.checkpoint_bytes,
          r.regions, r.snapshots, r.capture_wall_us, r.parse_wall_us,
          r.restore_wall_us, r.stage_wall_us);
  return bench::AppendTrajectory("BENCH_lifecycle.json", row) ? 0 : 1;
}
