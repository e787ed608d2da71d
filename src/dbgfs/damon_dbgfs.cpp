#include "dbgfs/damon_dbgfs.hpp"

#include <climits>
#include <cstdio>

#include "damos/parser.hpp"
#include "sim/system.hpp"
#include "util/strings.hpp"

namespace daos::dbgfs {

DamonDbgfs::DamonDbgfs(sim::System* system, PseudoFs* fs)
    : system_(system),
      ctx_(std::make_unique<damon::DamonContext>(
          damon::MonitoringAttrs::PaperDefaults(), /*seed=*/42,
          system->machine().costs().monitor_interference_us)),
      mount_(fs, "/damon") {
  engine_.Attach(*ctx_);
  // Watermark metrics and time-quota pricing come from this machine.
  engine_.SetMachine(&system_->machine());

  mount_.File(
      "attrs", [this] { return ReadAttrs(); },
      [this](std::string_view c, std::string* e) { return WriteAttrs(c, e); });
  mount_.File(
      "target_ids", [this] { return ReadTargets(); },
      [this](std::string_view c, std::string* e) {
        return WriteTargets(c, e);
      });
  mount_.File(
      "schemes", [this] { return ReadSchemes(); },
      [this](std::string_view c, std::string* e) {
        return WriteSchemes(c, e);
      });
  mount_.File(
      "monitor_on", [this] { return ReadMonitorOn(); },
      [this](std::string_view c, std::string* e) {
        return WriteMonitorOn(c, e);
      });

  system_->RegisterDaemon([this](SimTimeUs now, SimTimeUs quantum) {
    return on_ ? ctx_->Step(now, quantum) : 0.0;
  });
}

std::string DamonDbgfs::ReadAttrs() const {
  char buf[128];
  const damon::MonitoringAttrs& a = ctx_->attrs();
  std::snprintf(buf, sizeof buf, "%llu %llu %llu %u %u\n",
                static_cast<unsigned long long>(a.sampling_interval),
                static_cast<unsigned long long>(a.aggregation_interval),
                static_cast<unsigned long long>(a.regions_update_interval),
                a.min_nr_regions, a.max_nr_regions);
  return buf;
}

bool DamonDbgfs::WriteAttrs(std::string_view content, std::string* error) {
  damon::MonitoringAttrs attrs = ctx_->attrs();
  if (!damon::ParseAttrsLine(content, &attrs, error) ||
      !damon::ValidateAttrs(attrs, error))
    return false;
  ctx_->attrs() = attrs;
  return true;
}

std::string DamonDbgfs::ReadTargets() const {
  if (paddr_) return "paddr\n";
  std::string out;
  for (int pid : target_pids_) {
    out += std::to_string(pid);
    out += ' ';
  }
  if (!out.empty()) out.back() = '\n';
  return out;
}

bool DamonDbgfs::RebuildTargets(std::string* error) {
  ctx_->targets().clear();
  if (paddr_) {
    ctx_->AddTarget(std::make_unique<damon::PaddrPrimitives>(
        &system_->machine(),
        system_->machine().costs().monitor_check_paddr_us));
    return true;
  }
  for (int pid : target_pids_) {
    sim::Process* found = nullptr;
    for (auto& proc : system_->processes()) {
      if (proc->pid() == pid) found = proc.get();
    }
    if (found == nullptr) {
      if (error != nullptr) *error = "no such pid: " + std::to_string(pid);
      return false;
    }
    ctx_->AddTarget(std::make_unique<damon::VaddrPrimitives>(
        &found->space(), system_->machine().costs().monitor_check_us));
  }
  return true;
}

bool DamonDbgfs::WriteTargets(std::string_view content, std::string* error) {
  const auto tokens = SplitWhitespace(content);
  std::vector<int> pids;
  bool paddr = false;
  for (std::string_view tok : tokens) {
    if (ToLower(tok) == "paddr") {
      paddr = true;
      continue;
    }
    const std::optional<std::uint32_t> pid = ParseU32(tok);
    if (!pid || *pid == 0 || *pid > INT_MAX) {
      if (error != nullptr) *error = "bad target '" + std::string(tok) + "'";
      return false;
    }
    pids.push_back(static_cast<int>(*pid));
  }
  if (paddr && !pids.empty()) {
    if (error != nullptr) *error = "paddr cannot be mixed with pids";
    return false;
  }
  const std::vector<int> old_pids = std::move(target_pids_);
  const bool old_paddr = paddr_;
  target_pids_ = std::move(pids);
  paddr_ = paddr;
  if (!RebuildTargets(error)) {
    target_pids_ = old_pids;
    paddr_ = old_paddr;
    RebuildTargets(nullptr);
    return false;
  }
  return true;
}

std::string DamonDbgfs::ReadSchemes() const {
  // Kernel format: each scheme line followed by its stats, through the
  // same formatter the engine's StatsText uses.
  std::string out;
  for (const damos::Scheme& s : engine_.schemes()) {
    out += s.ToText();
    out += " # ";
    out += damos::FormatStats(s.stats());
    out += '\n';
  }
  return out;
}

bool DamonDbgfs::WriteSchemes(std::string_view content, std::string* error) {
  std::vector<std::string> errors;
  if (!engine_.InstallFromText(content, &errors)) {
    if (error != nullptr && !errors.empty()) *error = errors.front();
    return false;
  }
  return true;
}

std::string DamonDbgfs::ReadMonitorOn() const { return on_ ? "on\n" : "off\n"; }

bool DamonDbgfs::WriteMonitorOn(std::string_view content, std::string* error) {
  const std::string value = ToLower(TrimWhitespace(content));
  if (value == "on") {
    if (ctx_->targets().empty()) {
      if (error != nullptr) *error = "no monitoring targets configured";
      return false;
    }
    on_ = true;
    return true;
  }
  if (value == "off") {
    on_ = false;
    return true;
  }
  if (error != nullptr) *error = "expected 'on' or 'off'";
  return false;
}

}  // namespace daos::dbgfs
