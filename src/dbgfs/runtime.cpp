#include "dbgfs/runtime.hpp"

namespace daos::dbgfs {

namespace {

/// The per-trial watchdog deadline.
constexpr SimTimeUs kMaxTrialTime = 1200 * kUsPerSec;
/// How often the runtime reads procfs while the workload runs.
constexpr SimTimeUs kRssPollInterval = kUsPerSec;
/// Fresh environments booted to retry a failed trial before giving up.
constexpr int kMaxTrialRetries = 1;

}  // namespace

void DbgfsRuntime::SetFaultPlane(fault::FaultPlane* plane) {
  trial_hang_ = plane != nullptr ? &plane->Point(fault::kTrialHang) : nullptr;
}

autotune::TrialMeasurement DbgfsRuntime::RunTrial(
    const damos::Scheme* scheme) {
  ++trials_;
  std::unique_ptr<TrialEnv> env = factory_();

  if (scheme != nullptr) {
    // The paper's workflow, verbatim: configure monitoring and the scheme
    // by writing strings to the debugfs files, then switch monitoring on.
    std::string error;
    if (!env->fs.Write("/damon/target_ids",
                       std::to_string(env->workload_pid), &error) ||
        !env->fs.Write("/damon/schemes", scheme->ToText() + "\n", &error) ||
        !env->fs.Write("/damon/monitor_on", "on", &error)) {
      // A mis-specified scheme behaves like a failed trial: the workload
      // runs unmodified (the debugfs write simply failed).
    }
  }

  // An armed trial.hang makes this run behave like a wedged workload: the
  // poll loop ignores the finished flag and runs until the deadline or a
  // frozen clock, exactly what the watchdog exists to catch.
  const bool hung = fault::Fires(trial_hang_);

  // Run to completion, polling procfs for the RSS like the runtime's
  // scripts poll /proc/<pid>/status.
  double rss_sum = 0.0;
  std::uint64_t polls = 0;
  const SimTimeUs deadline = env->system->Now() + kMaxTrialTime;
  sim::Process* workload = nullptr;
  for (auto& proc : env->system->processes()) {
    if (proc->pid() == env->workload_pid) workload = proc.get();
  }
  while (env->system->Now() < deadline &&
         (hung || workload == nullptr || !workload->finished())) {
    const SimTimeUs before = env->system->Now();
    env->system->Run(kRssPollInterval);
    rss_sum += static_cast<double>(env->proc->ReadRssBytes(env->workload_pid));
    ++polls;
    // System::Run returns without advancing once every finite process has
    // finished; a wedged run that reaches that state has nothing left to
    // simulate, so stop polling instead of spinning on a frozen clock.
    if (env->system->Now() == before) break;
  }

  autotune::TrialMeasurement m;
  m.runtime_s = workload != nullptr
                    ? workload->Metrics(env->system->Now()).runtime_s
                    : static_cast<double>(env->system->Now()) / kUsPerSec;
  m.rss_bytes = polls > 0 ? rss_sum / static_cast<double>(polls) : 0.0;
  // Watchdog: the workload did not finish inside kMaxTrialTime (or the
  // run was wedged by trial.hang). The env is abandoned — the simulated
  // equivalent of kill -9 — and the measurement is unusable.
  m.failed = hung || (workload != nullptr && !workload->finished());
  return m;
}

autotune::TrialMeasurement DbgfsRuntime::RunOnce(
    const damos::Scheme* scheme) {
  autotune::TrialMeasurement m = RunTrial(scheme);
  for (int retry = 0; m.failed && retry < kMaxTrialRetries; ++retry)
    m = RunTrial(scheme);
  return m;
}

}  // namespace daos::dbgfs
