// Experiment runner: builds the paper's evaluation setups (§4) and runs one
// workload under one system configuration. Shared by the integration tests,
// the examples, and every figure bench.
//
// Configurations (paper §4, "Workloads"):
//   baseline — DAOS off, THP off, 4 GiB zram swap
//   rec      — baseline + virtual-address monitoring of the workload
//   prec     — baseline + physical-address monitoring of the guest
//   thp      — baseline but THP `always`
//   ethp     — baseline + the Listing 3 ethp schemes (hugepage/nohugepage)
//   prcl     — baseline + the Listing 3 prcl scheme (pageout, 5 s)
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autotune/tuner.hpp"
#include "damon/attrs.hpp"
#include "damon/recorder.hpp"
#include "damos/scheme.hpp"
#include "sim/machine.hpp"
#include "telemetry/metrics.hpp"
#include "workload/profile.hpp"

namespace daos::sim {
class AccessTap;
}  // namespace daos::sim

namespace daos::analysis {

enum class Config : std::uint8_t {
  kBaseline,
  kRec,
  kPrec,
  kThp,
  kEthp,
  kPrcl,
  kSchemes,  // custom scheme list with vaddr monitoring
};

std::string_view ConfigName(Config config);

struct ExperimentOptions {
  sim::MachineSpec host = sim::MachineSpec::I3Metal();  // guest derived inside
  sim::SwapConfig swap = sim::SwapConfig::Zram();
  damon::MonitoringAttrs attrs = damon::MonitoringAttrs::PaperDefaults();
  SimTimeUs quantum = 5 * kUsPerMs;
  SimTimeUs max_time = 900 * kUsPerSec;
  std::uint64_t seed = 1;
  bool apply_runtime_noise = true;  // per-run multiplicative noise
  /// When non-null, attached to the workload's address space for the whole
  /// run — the record hook of the trace plane (usually a
  /// trace::TraceWriter). Like `recorder` below it belongs to exactly one
  /// run: never share one tap across ParallelRunner specs.
  sim::AccessTap* record_tap = nullptr;
  /// Multi-tier memory geometry, installed on the guest machine before the
  /// workload maps anything. The default (empty) geometry keeps the machine
  /// untiered and the run bit-identical to the pre-tier engine.
  sim::TierGeometry tiers;
  sim::TierPolicy tier_policy = sim::TierPolicy::kNone;
};

struct ExperimentResult {
  std::string workload;
  Config config = Config::kBaseline;
  double runtime_s = 0.0;
  bool finished = false;
  double avg_rss_bytes = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t major_faults = 0;
  double monitor_cpu_fraction = 0.0;  // of one CPU; == telemetry value below
  double interference_s = 0.0;
  std::vector<damos::SchemeStats> scheme_stats;
  /// Final state of the run's metrics registry (every run gets one):
  /// "damon.ctx0.*" mirror of the monitor counters plus
  /// "damon.ctx0.cpu_fraction", "damos.scheme<i>.*" DAMOS stats, "sim.*"
  /// machine/swap gauges and counters.
  telemetry::MetricsSnapshot telemetry;
};

/// Runs `profile` on `options.host`'s guest under `config`.
/// `custom_schemes` is required for kSchemes and replaces the built-in
/// scheme list for kEthp/kPrcl when provided. `recorder`, when non-null, is
/// attached to the monitoring context (rec/prec/ethp/prcl/kSchemes only).
ExperimentResult RunWorkload(
    const workload::WorkloadProfile& profile, Config config,
    const ExperimentOptions& options,
    const std::vector<damos::Scheme>* custom_schemes = nullptr,
    damon::Recorder* recorder = nullptr);

/// The auto-tuner's trial on `profile`, run with copies of `profile` and
/// `options`: a null scheme runs the baseline configuration, any other
/// scheme runs kSchemes with that one scheme.
autotune::TrialRunner WorkloadTrial(const workload::WorkloadProfile& profile,
                                    const ExperimentOptions& options);

/// The Listing 3 scheme sets.
std::vector<damos::Scheme> EthpSchemes();
std::vector<damos::Scheme> PrclSchemes(SimTimeUs min_age = 5 * kUsPerSec);

}  // namespace daos::analysis
