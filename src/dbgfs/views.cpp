#include "dbgfs/views.hpp"

#include <vector>

#include "sim/tier.hpp"
#include "telemetry/export.hpp"
#include "util/strings.hpp"

namespace daos::dbgfs {

Mount MountChaos(PseudoFs* fs, chaos::ChaosEngine* engine) {
  Mount mount(fs, "/chaos");
  mount.File(
      "status", [engine] { return engine->StatusText(); },
      [engine](std::string_view content, std::string* error) {
        const std::vector<std::string_view> tokens =
            SplitWhitespace(TrimWhitespace(content));
        if (tokens.size() == 2 && tokens[0] == "run") {
          const auto count = ParseU64(tokens[1]);
          if (count && *count >= 1 && *count <= 1024) {
            engine->RunNext(static_cast<std::size_t>(*count));
            return true;
          }
        }
        if (error != nullptr) *error = "expected 'run <1..1024>'";
        return false;
      });
  mount.File(
      "last_repro",
      [engine] {
        return engine->last_repro().empty() ? std::string("none\n")
                                            : engine->last_repro() + "\n";
      },
      nullptr);
  return mount;
}

Mount MountFault(PseudoFs* fs, fault::FaultPlane* plane) {
  // /fault is a file at the top level, not a directory.
  Mount mount(fs, "");
  mount.File(
      "fault", [plane] { return plane->StatusText(); },
      [plane](std::string_view content, std::string* error) {
        return plane->Configure(content, error);
      });
  return mount;
}

Mount MountFleet(PseudoFs* fs, fleet::FleetController* fleet) {
  Mount mount(fs, "/fleet");
  mount.File(
      "status", [fleet] { return fleet->StatusText(); }, nullptr);
  mount.File(
      "rollout", [fleet] { return fleet->last_rollout_result() + "\n"; },
      [fleet](std::string_view content, std::string* error) {
        return fleet->StartRolloutFromText(content, error);
      });
  mount.File(
      "quarantine", [fleet] { return fleet->QuarantineText(); },
      [fleet](std::string_view content, std::string* error) {
        return fleet->WriteQuarantine(content, error);
      });
  return mount;
}

Mount MountLifecycle(PseudoFs* fs, lifecycle::KdamondSupervisor* supervisor) {
  Mount mount(fs, "/lifecycle");
  mount.File(
      "state", [supervisor] { return supervisor->StateText(); }, nullptr);
  mount.File(
      "commit",
      [supervisor] { return supervisor->last_commit_result() + "\n"; },
      [supervisor](std::string_view content, std::string* error) {
        return supervisor->CommitFromText(content, error);
      });
  mount.File(
      "checkpoint",
      // Reading captures: the debugfs analogue of a state dump that is
      // also valid input for the restore write below.
      [supervisor] { return supervisor->CaptureCheckpointText(); },
      [supervisor](std::string_view content, std::string* error) {
        return supervisor->RestoreFromText(content, error);
      });
  return mount;
}

Mount MountTelemetry(PseudoFs* fs, const telemetry::MetricsRegistry* registry,
                     const telemetry::TraceBuffer* trace) {
  Mount mount(fs, "/telemetry");
  mount.File(
      "metrics", [registry] { return telemetry::ToPrometheusText(*registry); },
      nullptr);
  mount.File(
      "events", [trace] { return telemetry::ToJsonl(*trace); }, nullptr);
  return mount;
}

Mount MountTier(PseudoFs* fs, sim::Machine* machine) {
  Mount mount(fs, "/tier");
  mount.File(
      "status", [machine] { return machine->TierStatusText(); }, nullptr);
  mount.File(
      "geometry", [machine] { return machine->tier_geometry().ToText(); },
      [machine](std::string_view content, std::string* error) {
        sim::TierGeometry geometry;
        if (!sim::ParseTierGeometry(content, &geometry, error)) return false;
        return machine->SetTierGeometry(geometry, error);
      });
  return mount;
}

}  // namespace daos::dbgfs
