// The System: owns the clock, the machine, the processes, and the kernel
// daemons (DAMON contexts register themselves here), and drives the whole
// simulation in fixed scheduler quanta.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "sim/clock.hpp"
#include "sim/machine.hpp"
#include "sim/process.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_buffer.hpp"
#include "util/types.hpp"

namespace daos::sim {

/// A kernel-space daemon stepped once per quantum (kdamond in the paper's
/// terms). Returns the interference it injected into the workload side this
/// step, in microseconds (e.g., TLB shootdown cost of accessed-bit
/// clearing); the System distributes it to the processes.
using Daemon = std::function<double(SimTimeUs now, SimTimeUs quantum)>;

struct SystemMetrics {
  double elapsed_s = 0.0;
  std::vector<ProcessMetrics> processes;
  std::uint64_t reclaimed_pages = 0;
  std::uint64_t swap_ins = 0;
  std::uint64_t swap_outs = 0;
  std::uint64_t swap_used_slots = 0;
  std::uint64_t swap_write_errors = 0;  // injected swap-out failures absorbed
  std::uint64_t oom_kills = 0;          // processes killed to relieve pressure
};

class System {
 public:
  /// Quantum default: 1 ms — fine enough to honour the paper's 5 ms
  /// sampling interval.
  System(const MachineSpec& spec, const SwapConfig& swap,
         ThpMode thp = ThpMode::kNever, SimTimeUs quantum = kUsPerMs);

  Machine& machine() noexcept { return machine_; }
  const Machine& machine() const noexcept { return machine_; }
  SimTimeUs Now() const noexcept { return clock_.Now(); }
  SimTimeUs quantum() const noexcept { return quantum_; }

  Process& AddProcess(ProcessParams params,
                      std::unique_ptr<AccessSource> source);
  std::vector<std::unique_ptr<Process>>& processes() noexcept {
    return processes_;
  }

  void RegisterDaemon(Daemon daemon) { daemons_.push_back(std::move(daemon)); }

  /// Points the machine (and the System's own daemon.overrun check) at
  /// `plane`; nullptr disarms everything. The plane must outlive the
  /// system unless it is the env-armed plane the ctor created itself.
  void SetFaultPlane(fault::FaultPlane* plane);
  /// The env-armed plane (DAOS_FAULTS), if the ctor created one.
  fault::FaultPlane* fault_plane() noexcept { return fault_plane_; }

  /// Invoked with the current plane immediately and again on every
  /// SetFaultPlane — how attached components that resolve their own fault
  /// points (the kdamond lifecycle supervisor's "daemon.crash") stay
  /// current when a test or dbgfs write swaps the plane mid-run. The
  /// callback must outlive the system.
  using FaultPlaneListener = std::function<void(fault::FaultPlane*)>;
  void AddFaultPlaneListener(FaultPlaneListener listener);

  std::uint64_t oom_kills() const noexcept { return oom_kills_; }
  /// Quanta a daemon overran (injected via the "daemon.overrun" point).
  /// Chaos telemetry-conservation oracles compare this against the point's
  /// cumulative fire count.
  std::uint64_t daemon_overruns() const noexcept { return daemon_overruns_; }
  /// Processes not yet finished.
  std::uint64_t ActiveProcesses() const;

  /// Attaches the telemetry plane: every `interval` of simulated time the
  /// daemon loop publishes the gauge and counter tables in system.cpp
  /// (counters mirror machine totals by delta, from zero at each attach)
  /// and — when `trace` is non-null — emits each traced row's event with
  /// the delta. Per-quantum daemon interference is observed into the
  /// "sim.quantum.interference_us" histogram. Both pointers must outlive
  /// the system's stepping.
  void AttachTelemetry(telemetry::MetricsRegistry* registry,
                       telemetry::TraceBuffer* trace = nullptr,
                       SimTimeUs interval = kUsPerSec);

  /// Runs until every finite process completed or `max_time` elapsed.
  /// Returns aggregated metrics.
  SystemMetrics Run(SimTimeUs max_time);

  /// Runs exactly one quantum (for fine-grained tests).
  void Step();

 private:
  void PublishTelemetry(SimTimeUs now);
  void OomKill(SimTimeUs now);

  SimClock clock_;
  Machine machine_;
  SimTimeUs quantum_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Daemon> daemons_;
  int next_pid_ = 1;
  SimTimeUs next_log_gc_ = 0;
  std::unique_ptr<fault::FaultPlane> owned_faults_;  // env-armed (DAOS_FAULTS)
  fault::FaultPlane* fault_plane_ = nullptr;
  fault::FaultPoint* daemon_overrun_ = nullptr;
  std::vector<FaultPlaneListener> fault_plane_listeners_;
  std::uint64_t daemon_overruns_ = 0;
  std::uint64_t oom_kills_ = 0;

  // Telemetry snapshot state (inactive until AttachTelemetry): one handle
  // per table row, null for a tier row on an untiered machine.
  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::TraceBuffer* trace_ = nullptr;
  telemetry::Histogram* interference_hist_ = nullptr;
  SimTimeUs telemetry_interval_ = kUsPerSec;
  SimTimeUs next_telemetry_ = 0;
  struct Mirror {
    telemetry::Counter* counter = nullptr;
    std::uint64_t last = 0;  // the total at the previous snapshot
  };
  std::vector<Mirror> counters_;
  std::vector<telemetry::Gauge*> gauges_;
  // The hot-cold mismatch gauge: this interval's slow share of touches.
  telemetry::Gauge* tier_mismatch_ = nullptr;
  std::uint64_t last_tier_touches_ = 0, last_tier_slow_ = 0;
};

}  // namespace daos::sim
