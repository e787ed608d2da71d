// The DAMON debugfs interface (paper §3.6).
//
// Mirrors the kernel's /sys/kernel/debug/damon directory: the user-space
// runtime configures monitoring and schemes by writing strings to files.
//
//   /damon/attrs       "sample_us aggr_us update_us min_nr max_nr"
//   /damon/target_ids  "1 2 3" (pids) or "paddr" (physical monitoring)
//   /damon/schemes     one scheme per line (Listing 1/3 format);
//                      reading returns each scheme plus its stats
//   /damon/monitor_on  "on" / "off"
//
// A DamonDbgfs owns its DamonContext and SchemesEngine and registers a
// daemon on the System, so after `echo on > monitor_on` monitoring runs as
// the simulation advances — exactly the kernel workflow.
#pragma once

#include <memory>
#include <string>

#include "damon/monitor.hpp"
#include "damos/engine.hpp"
#include "dbgfs/pseudo_fs.hpp"

namespace daos::sim {
class System;
}

namespace daos::dbgfs {

class DamonDbgfs {
 public:
  /// Registers the debugfs files under /damon in `fs` and a monitoring
  /// daemon on `system`. Both must outlive this object. The daemon
  /// captures `this`; the System must not be stepped after the dbgfs is
  /// destroyed (matches kernel teardown ordering: debugfs dies with the
  /// module).
  DamonDbgfs(sim::System* system, PseudoFs* fs);

  DamonDbgfs(const DamonDbgfs&) = delete;
  DamonDbgfs& operator=(const DamonDbgfs&) = delete;

  damon::DamonContext& context() noexcept { return *ctx_; }
  damos::SchemesEngine& engine() noexcept { return engine_; }
  bool monitoring() const noexcept { return on_; }

  /// Binds the owned context ("damon.ctx0.*") and schemes engine
  /// ("damos.*") to the telemetry plane. Both arguments must outlive this
  /// object's use on the System.
  void SetTelemetry(telemetry::MetricsRegistry& registry,
                    telemetry::TraceBuffer* trace = nullptr) {
    ctx_->BindTelemetry(registry, trace);
    engine_.BindTelemetry(registry, trace);
  }

 private:
  std::string ReadAttrs() const;
  bool WriteAttrs(std::string_view content, std::string* error);
  std::string ReadTargets() const;
  bool WriteTargets(std::string_view content, std::string* error);
  std::string ReadSchemes() const;
  bool WriteSchemes(std::string_view content, std::string* error);
  std::string ReadMonitorOn() const;
  bool WriteMonitorOn(std::string_view content, std::string* error);

  /// (Re)creates the context's targets from the target spec.
  bool RebuildTargets(std::string* error);

  sim::System* system_;
  std::unique_ptr<damon::DamonContext> ctx_;
  damos::SchemesEngine engine_;
  std::vector<int> target_pids_;  // empty + paddr_ set => physical
  bool paddr_ = false;
  bool on_ = false;
  Mount mount_;  // last: its files capture `this`
};

}  // namespace daos::dbgfs
