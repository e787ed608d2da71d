// The user-space Auto-tuning Runtime's trial runner (paper Figure 1 +
// §3.5/§3.6).
//
// autotune::AutoTuner picks the samples and fits the curve; this runner
// takes each trial the way the paper's deployment does: it launches a
// fresh workload, installs the candidate scheme by writing its text form
// to the debugfs files, lets the system run, and measures runtime and
// memory footprint through procfs — what the paper's bash/python runtime
// does, with no direct kernel-API access. `RunOnce` is an
// autotune::TrialRunner.
#pragma once

#include <functional>
#include <memory>

#include "autotune/score.hpp"
#include "damos/scheme.hpp"
#include "dbgfs/damon_dbgfs.hpp"
#include "dbgfs/procfs.hpp"
#include "fault/fault.hpp"
#include "sim/system.hpp"

namespace daos::dbgfs {

/// One freshly-booted trial environment: a system with the workload
/// started and the pseudo-filesystems mounted.
struct TrialEnv {
  std::unique_ptr<sim::System> system;
  int workload_pid = 0;
  PseudoFs fs;
  std::unique_ptr<DamonDbgfs> damon;
  std::unique_ptr<ProcFs> proc;
};

/// Builds a fresh environment per trial ("the runtime starts the
/// workload", §3). Must return a ready-to-run env.
using EnvFactory = std::function<std::unique_ptr<TrialEnv>()>;

class DbgfsRuntime {
 public:
  explicit DbgfsRuntime(EnvFactory factory) : factory_(std::move(factory)) {}

  /// Runs one trial: boots an env, installs `scheme` (null = baseline)
  /// through debugfs, runs to completion, and returns the runtime and the
  /// RSS averaged over one procfs read per simulated second. A workload
  /// still unfinished 1200 s after boot is killed by the watchdog (a hung
  /// one also stops once the simulated clock stops advancing) and the
  /// trial retried once on a fresh environment; the returned measurement
  /// is `failed` when the retry was killed too.
  autotune::TrialMeasurement RunOnce(const damos::Scheme* scheme);

  /// Trials executed so far, counting every boot (watchdog retries
  /// included).
  int trials() const noexcept { return trials_; }

  /// Resolves the runtime's `trial.hang` fault point on `plane` (nullptr
  /// detaches). While armed, a firing check makes the trial's workload
  /// appear hung so the watchdog path is exercised deterministically.
  void SetFaultPlane(fault::FaultPlane* plane);

 private:
  /// One boot-run-measure cycle with no retry logic.
  autotune::TrialMeasurement RunTrial(const damos::Scheme* scheme);

  EnvFactory factory_;
  int trials_ = 0;
  fault::FaultPoint* trial_hang_ = nullptr;
};

}  // namespace daos::dbgfs
