#include "sim/system.hpp"

#include <algorithm>

namespace daos::sim {

System::System(const MachineSpec& spec, const SwapConfig& swap, ThpMode thp,
               SimTimeUs quantum)
    : machine_(spec, swap, thp), quantum_(quantum) {
  // CI stress runs arm faults on unmodified binaries via DAOS_FAULTS /
  // DAOS_FAULT_SEED; when unset this is a nullptr and nothing changes.
  owned_faults_ = fault::FaultPlane::FromEnv();
  if (owned_faults_ != nullptr) SetFaultPlane(owned_faults_.get());
}

void System::SetFaultPlane(fault::FaultPlane* plane) {
  fault_plane_ = plane;
  machine_.SetFaultPlane(plane);
  daemon_overrun_ =
      plane != nullptr ? &plane->Point(fault::kDaemonOverrun) : nullptr;
  for (FaultPlaneListener& listener : fault_plane_listeners_)
    listener(plane);
}

void System::AddFaultPlaneListener(FaultPlaneListener listener) {
  listener(fault_plane_);
  fault_plane_listeners_.push_back(std::move(listener));
}

void System::OomKill(SimTimeUs now) {
  // Kill the largest-RSS unfinished process — the badness heuristic the
  // kernel's OOM killer reduces to when all tasks are equal otherwise.
  Process* victim = nullptr;
  for (auto& proc : processes_) {
    if (proc->finished()) continue;
    if (victim == nullptr || proc->ReadRssBytes() > victim->ReadRssBytes())
      victim = proc.get();
  }
  if (victim == nullptr) return;
  const std::uint64_t freed = victim->ReadRssBytes();
  victim->Kill(now);
  ++oom_kills_;
  if (trace_ != nullptr) {
    // id=pid, arg0=bytes freed by the kill.
    trace_->Push({now, telemetry::EventKind::kOomKill,
                  static_cast<std::uint32_t>(victim->pid()), freed, 0, 0});
  }
}

Process& System::AddProcess(ProcessParams params,
                            std::unique_ptr<AccessSource> source) {
  processes_.push_back(std::make_unique<Process>(
      std::move(params), &machine_, next_pid_++, std::move(source)));
  return *processes_.back();
}

void System::AttachTelemetry(telemetry::MetricsRegistry* registry,
                             telemetry::TraceBuffer* trace,
                             SimTimeUs interval) {
  registry_ = registry;
  trace_ = trace;
  telemetry_interval_ = std::max<SimTimeUs>(interval, quantum_);
  next_telemetry_ = clock_.Now();
  tel_ = {};
  if (registry_ != nullptr) {
    interference_hist_ =
        &registry_->GetHistogram("sim.quantum.interference_us");
    tel_.dram_used_bytes = &registry_->GetGauge("sim.dram_used_bytes");
    tel_.used_frames = &registry_->GetGauge("sim.used_frames");
    tel_.swap_used_slots = &registry_->GetGauge("sim.swap.used_slots");
    tel_.processes_active = &registry_->GetGauge("sim.processes.active");
    tel_.reclaim_pages = &registry_->GetCounter("sim.reclaim.pages");
    tel_.reclaim_scans = &registry_->GetCounter("sim.reclaim.scans");
    tel_.swap_ins = &registry_->GetCounter("sim.swap.ins");
    tel_.swap_outs = &registry_->GetCounter("sim.swap.outs");
    tel_.thp_collapses = &registry_->GetCounter("sim.thp.collapses");
    tel_.swap_errors = &registry_->GetCounter("sim.swap.errors");
    tel_.oom_kills = &registry_->GetCounter("sim.oom_kills");
    tel_.alloc_errors = &registry_->GetCounter("sim.alloc.errors");
    tel_.thp_collapse_errors =
        &registry_->GetCounter("sim.thp.collapse_errors");
    tel_.daemon_overruns = &registry_->GetCounter("sim.daemon.overruns");
    tel_.touchlog_gc_entries =
        &registry_->GetCounter("sim.touchlog.gc_entries");
    if (machine_.tiered()) {
      // The hot-cold mismatch gauge is the tuner's native score function
      // for tiering schemes: fraction (permille) of this interval's page
      // touches that landed outside the fast tier.
      tel_.tier_fast_used_bytes =
          &registry_->GetGauge("sim.tier.fast_used_bytes");
      tel_.tier_mismatch_permille =
          &registry_->GetGauge("sim.tier.hot_mismatch_permille");
      tel_.tier_promoted = &registry_->GetCounter("sim.tier.promoted_pages");
      tel_.tier_demoted = &registry_->GetCounter("sim.tier.demoted_pages");
      tel_.tier_migrate_fails =
          &registry_->GetCounter("sim.tier.migrate_fails");
      tel_.tier_promote_blocked =
          &registry_->GetCounter("sim.tier.promote_blocked");
      tel_.tier_slow_touches =
          &registry_->GetCounter("sim.tier.slow_touches");
    }
  } else {
    interference_hist_ = nullptr;
  }
  last_ = {};
}

void System::PublishTelemetry(SimTimeUs now) {
  // Gauges: current state of the machine. All instrument handles were
  // resolved at AttachTelemetry; this path is pure pointer arithmetic.
  tel_.dram_used_bytes->Set(static_cast<double>(machine_.dram_used_bytes()));
  tel_.used_frames->Set(static_cast<double>(machine_.used_frames()));
  tel_.swap_used_slots->Set(
      static_cast<double>(machine_.swap().used_slots()));
  std::uint64_t active = 0;
  for (const auto& proc : processes_)
    if (!proc->finished()) ++active;
  tel_.processes_active->Set(static_cast<double>(active));

  // Counters: mirror the machine/swap totals by delta, and turn nonzero
  // deltas into tracepoints (id/args documented per kind).
  const MachineCounters& mc = machine_.counters();
  const SwapDevice& swap = machine_.swap();
  struct DeltaSpec {
    telemetry::Counter* counter;
    std::uint64_t current;
    std::uint64_t* last;
    telemetry::EventKind kind;
  } deltas[] = {
      {tel_.reclaim_pages, mc.reclaimed_pages, &last_.reclaimed_pages,
       telemetry::EventKind::kReclaim},
      {tel_.swap_ins, swap.total_ins(), &last_.swap_ins,
       telemetry::EventKind::kSwapIn},
      {tel_.swap_outs, swap.total_outs(), &last_.swap_outs,
       telemetry::EventKind::kSwapOut},
      {tel_.thp_collapses, mc.khugepaged_collapses,
       &last_.khugepaged_collapses, telemetry::EventKind::kThpCollapse},
      {tel_.swap_errors, mc.swap_write_errors, &last_.swap_write_errors,
       telemetry::EventKind::kSwapError},
      {tel_.oom_kills, oom_kills_, &last_.oom_kills,
       telemetry::EventKind::kOomKill},
  };
  for (DeltaSpec& d : deltas) {
    const std::uint64_t delta = d.current - *d.last;
    *d.last = d.current;
    if (delta == 0) continue;
    d.counter->Add(delta);
    if (trace_ != nullptr) {
      // arg0=count since last snapshot, arg1=running total.
      trace_->Push({now, d.kind, 0, delta, d.current, 0});
    }
  }

  // Event-less counters (failure paths that already traced above or need no
  // tracepoint of their own), plus maintenance totals.
  struct PlainDelta {
    telemetry::Counter* counter;
    std::uint64_t current;
    std::uint64_t* last;
  } plain[] = {
      {tel_.reclaim_scans, mc.reclaim_scans, &last_.reclaim_scans},
      {tel_.alloc_errors, mc.alloc_stalls, &last_.alloc_stalls},
      {tel_.thp_collapse_errors, mc.thp_collapse_errors,
       &last_.thp_collapse_errors},
      {tel_.daemon_overruns, daemon_overruns_, &last_.daemon_overruns},
      {tel_.touchlog_gc_entries, touchlog_gc_entries_,
       &last_.touchlog_gc_entries},
  };
  for (PlainDelta& d : plain) {
    const std::uint64_t delta = d.current - *d.last;
    *d.last = d.current;
    if (delta > 0) d.counter->Add(delta);
  }

  if (tel_.tier_mismatch_permille != nullptr) {
    tel_.tier_fast_used_bytes->Set(
        static_cast<double>(machine_.FastTierUsedBytes()));
    const std::uint64_t touches = mc.tier_touches - last_.tier_touches;
    const std::uint64_t slow =
        mc.tier_slow_touches - last_.tier_slow_touches;
    last_.tier_touches = mc.tier_touches;
    last_.tier_slow_touches = mc.tier_slow_touches;
    if (touches > 0) {
      tel_.tier_mismatch_permille->Set(
          static_cast<double>(slow * 1000 / touches));
    }
    if (slow > 0) tel_.tier_slow_touches->Add(slow);
    PlainDelta tier_deltas[] = {
        {tel_.tier_promoted, mc.tier_promoted_pages,
         &last_.tier_promoted_pages},
        {tel_.tier_demoted, mc.tier_demoted_pages, &last_.tier_demoted_pages},
        {tel_.tier_migrate_fails, mc.tier_migrate_fails,
         &last_.tier_migrate_fails},
        {tel_.tier_promote_blocked, mc.tier_promote_blocked,
         &last_.tier_promote_blocked},
    };
    for (PlainDelta& d : tier_deltas) {
      const std::uint64_t delta = d.current - *d.last;
      *d.last = d.current;
      if (delta > 0) d.counter->Add(delta);
    }
  }
}

void System::Step() {
  const SimTimeUs now = clock_.Now();

  for (auto& proc : processes_) proc->RunQuantum(now, quantum_);

  double interference_us = 0.0;
  for (Daemon& daemon : daemons_) {
    interference_us += daemon(now, quantum_);
    if (fault::Fires(daemon_overrun_)) {
      // Daemon overshot its slice: a whole quantum of extra interference
      // lands on the workload (a kdamond stuck in a long rmap walk).
      interference_us += static_cast<double>(quantum_);
      ++daemon_overruns_;
    }
  }
  if (interference_hist_ != nullptr && interference_us > 0.0)
    interference_hist_->Observe(interference_us);
  if (interference_us > 0.0) {
    // Monitoring interference (TLB shootdowns from accessed-bit clearing)
    // hits whichever processes are running; distribute evenly.
    std::size_t active = 0;
    for (auto& proc : processes_)
      if (!proc->finished()) ++active;
    if (active > 0) {
      const double share = interference_us / static_cast<double>(active);
      for (auto& proc : processes_)
        if (!proc->finished()) proc->AddInterference(share);
    }
  }

  machine_.RunKhugepaged(now);
  machine_.RunTierBalancerIfNeeded(now);
  machine_.RunReclaimIfNeeded(now);
  if (machine_.TakeOomPending()) OomKill(now);

  if (now >= next_log_gc_) {
    next_log_gc_ = now + kUsPerSec;
    for (AddressSpace* space : machine_.spaces())
      touchlog_gc_entries_ += space->MaintainLogs(now);
  }

  if (registry_ != nullptr && now >= next_telemetry_) {
    next_telemetry_ = now + telemetry_interval_;
    PublishTelemetry(now);
  }

  clock_.Advance(quantum_);
}

SystemMetrics System::Run(SimTimeUs max_time) {
  const SimTimeUs deadline = clock_.Now() + max_time;
  // Stop early only when every *finite* process finished; a system of pure
  // servers (run_forever) runs to the deadline.
  auto finite_all_done = [this] {
    bool any_finite = false;
    for (const auto& p : processes_) {
      if (p->params().run_forever) continue;
      any_finite = true;
      if (!p->finished()) return false;
    }
    return any_finite;
  };
  while (clock_.Now() < deadline && !finite_all_done()) Step();

  SystemMetrics m;
  m.elapsed_s = static_cast<double>(clock_.Now()) / kUsPerSec;
  for (auto& proc : processes_) m.processes.push_back(proc->Metrics(clock_.Now()));
  m.reclaimed_pages = machine_.counters().reclaimed_pages;
  m.swap_ins = machine_.swap().total_ins();
  m.swap_outs = machine_.swap().total_outs();
  m.swap_used_slots = machine_.swap().used_slots();
  m.swap_write_errors = machine_.counters().swap_write_errors;
  m.oom_kills = oom_kills_;
  return m;
}

}  // namespace daos::sim
