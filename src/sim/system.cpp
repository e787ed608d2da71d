#include "sim/system.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string_view>
#include <utility>

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

namespace {

using enum telemetry::EventKind;
using MC = MachineCounters;
using Read = std::uint64_t (*)(const System&);

template <std::uint64_t MC::*kField>
std::uint64_t Field(const System& s) {
  return s.machine().counters().*kField;
}

// Everything a snapshot publishes, each name once. A "sim.tier." row binds
// only on a tiered machine, so untiered runs publish exactly the pre-tier
// metric set (dbgfs listings stay golden).
bool TierOnly(std::string_view name) { return name.starts_with("sim.tier."); }

struct GaugeRow {
  const char* name;
  Read read;
};

constexpr GaugeRow kGauges[] = {
    {"sim.dram_used_bytes",
     [](const System& s) { return s.machine().dram_used_bytes(); }},
    {"sim.used_frames",
     [](const System& s) { return s.machine().used_frames(); }},
    {"sim.swap.used_slots",
     [](const System& s) { return s.machine().swap().used_slots(); }},
    {"sim.processes.active",
     [](const System& s) { return s.ActiveProcesses(); }},
    {"sim.tier.fast_used_bytes",
     [](const System& s) { return s.machine().FastTierUsedBytes(); }},
};

// A counter row mirrors a running total by delta. A row with an event turns
// each nonzero delta into that tracepoint (arg0=count since the last
// snapshot, arg1=running total), in table order.
struct CounterRow {
  const char* name;
  Read read;
  std::optional<telemetry::EventKind> event = std::nullopt;
};

constexpr CounterRow kCounters[] = {
    {"sim.reclaim.pages", Field<&MC::reclaimed_pages>, kReclaim},
    {"sim.swap.ins",
     [](const System& s) { return s.machine().swap().total_ins(); }, kSwapIn},
    {"sim.swap.outs",
     [](const System& s) { return s.machine().swap().total_outs(); },
     kSwapOut},
    {"sim.thp.collapses", Field<&MC::khugepaged_collapses>, kThpCollapse},
    {"sim.swap.errors", Field<&MC::swap_write_errors>, kSwapError},
    {"sim.oom_kills", [](const System& s) { return s.oom_kills(); }, kOomKill},
    {"sim.reclaim.scans", Field<&MC::reclaim_scans>},
    {"sim.alloc.errors", Field<&MC::alloc_stalls>},
    {"sim.thp.collapse_errors", Field<&MC::thp_collapse_errors>},
    {"sim.daemon.overruns",
     [](const System& s) { return s.daemon_overruns(); }},
    {"sim.touchlog.gc_entries", Field<&MC::touchlog_gc_entries>},
    {"sim.tier.slow_touches", Field<&MC::tier_slow_touches>},
    {"sim.tier.promoted_pages", Field<&MC::tier_promoted_pages>},
    {"sim.tier.demoted_pages", Field<&MC::tier_demoted_pages>},
    {"sim.tier.migrate_fails", Field<&MC::tier_migrate_fails>},
    {"sim.tier.promote_blocked", Field<&MC::tier_promote_blocked>},
};

}  // namespace

std::uint64_t System::ActiveProcesses() const {
  std::uint64_t active = 0;
  for (const auto& proc : processes_)
    if (!proc->finished()) ++active;
  return active;
}

void System::AttachTelemetry(telemetry::MetricsRegistry* registry,
                             telemetry::TraceBuffer* trace,
                             SimTimeUs interval) {
  registry_ = registry;
  trace_ = trace;
  telemetry_interval_ = std::max<SimTimeUs>(interval, quantum_);
  next_telemetry_ = clock_.Now();
  interference_hist_ = nullptr;
  if (registry_ == nullptr) return;
  const bool tiered = machine_.tiered();
  interference_hist_ = &registry_->GetHistogram("sim.quantum.interference_us");
  gauges_.assign(std::size(kGauges), nullptr);
  counters_.assign(std::size(kCounters), Mirror{});
  for (std::size_t i = 0; i < std::size(kGauges); ++i)
    if (tiered || !TierOnly(kGauges[i].name))
      gauges_[i] = &registry_->GetGauge(kGauges[i].name);
  for (std::size_t i = 0; i < std::size(kCounters); ++i)
    if (tiered || !TierOnly(kCounters[i].name))
      counters_[i].counter = &registry_->GetCounter(kCounters[i].name);
  // The tuner's native score for tiering schemes: the permille of this
  // interval's page touches that landed outside the fast tier.
  tier_mismatch_ =
      tiered ? &registry_->GetGauge("sim.tier.hot_mismatch_permille") : nullptr;
  last_tier_touches_ = last_tier_slow_ = 0;
}

void System::PublishTelemetry(SimTimeUs now) {
  for (std::size_t i = 0; i < std::size(kGauges); ++i)
    if (gauges_[i] != nullptr)
      gauges_[i]->Set(static_cast<double>(kGauges[i].read(*this)));
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    Mirror& m = counters_[i];
    if (m.counter == nullptr) continue;
    const std::uint64_t total = kCounters[i].read(*this);
    const std::uint64_t delta = total - std::exchange(m.last, total);
    if (delta == 0) continue;
    m.counter->Add(delta);
    if (trace_ != nullptr && kCounters[i].event.has_value())
      trace_->Push({now, *kCounters[i].event, 0, delta, total, 0});
  }
  if (tier_mismatch_ != nullptr) {
    const MachineCounters& mc = machine_.counters();
    const std::uint64_t touches =
        mc.tier_touches - std::exchange(last_tier_touches_, mc.tier_touches);
    const std::uint64_t slow = mc.tier_slow_touches -
                               std::exchange(last_tier_slow_,
                                             mc.tier_slow_touches);
    if (touches > 0)
      tier_mismatch_->Set(static_cast<double>(slow * 1000 / touches));
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
    const std::uint64_t active = ActiveProcesses();
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
      machine_.counters().touchlog_gc_entries += space->MaintainLogs(now);
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
