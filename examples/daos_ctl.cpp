// The paper's §3.6 user-space workflow, end to end: everything goes
// through the debugfs/procfs string interface — the way the original
// bash/python runtime drives the kernel — never through direct API calls.
//
//   1. boot the guest, start a workload
//   2. "echo <pid> > /damon/target_ids"
//   3. "echo 'min max min min 2s max pageout' > /damon/schemes"
//   4. "echo on > /damon/monitor_on"
//   5. poll "/proc/<pid>/status" for VmRSS while the system runs
//   6. read the scheme stats back and save a monitoring record file
//
// Build & run:  ./build/examples/daos_ctl
//
// Lifecycle verbs (src/lifecycle, driven through /lifecycle/* files):
//
//   daos_ctl commit <bundle-file>   boot a supervised run, apply a staged
//                                   reconfiguration bundle mid-run; exits
//                                   non-zero when the bundle is rejected
//   daos_ctl checkpoint <out-file>  run supervised, save a checkpoint
//   daos_ctl restore <in-file>      boot from a saved checkpoint, resume
//
// Trace verbs (src/trace, driven through the /trace/* files and the
// `trace:` workload scheme):
//
//   daos_ctl record <workload> <out.dtr>   run a workload with the trace
//                                          tap armed, save daos-trace v1
//   daos_ctl replay <in.dtr>               run the trace as a workload
//   daos_ctl ingest <in.txt> <out.dtr>     convert lackey/CSV text traces
//
// Tier verbs (src/sim tiering, driven through the /tier/* files):
//
//   daos_ctl tier-status             boot a tiered guest (dram + cxl),
//                                    install migrate_hot/migrate_cold
//                                    schemes through /damon/schemes, run a
//                                    workload, print /tier/status and
//                                    /tier/geometry
//
// Fleet verbs (src/fleet, driven through the /fleet/* files):
//
//   daos_ctl fleet-status            run a small demo fleet, print the
//                                    /fleet/status and /fleet/quarantine
//                                    files
//   daos_ctl fleet-rollout <spec>    stage a canary rollout from a spec
//                                    file; exits non-zero unless the
//                                    rollout promotes (rejected, rolled
//                                    back, and aborted all fail)
//
// All verbs exit non-zero on a rejected input, with line/offset-accurate
// errors on stderr.
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "analysis/experiment.hpp"
#include "analysis/heatmap.hpp"
#include "damon/recorder.hpp"
#include "damon/trace.hpp"
#include "dbgfs/trace_fs.hpp"
#include "trace/ingest.hpp"
#include "trace/writer.hpp"
#include "dbgfs/damon_dbgfs.hpp"
#include "fleet/controller.hpp"
#include "dbgfs/procfs.hpp"
#include "dbgfs/views.hpp"
#include "lifecycle/supervisor.hpp"
#include "sim/system.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_buffer.hpp"
#include "util/file.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

namespace {

// Mimics `echo <content> > <path>` incl. failing loudly like the shell.
// Returns false on a rejected write, printing the handler's error (which
// carries "line N:" positions for multi-line scheme/fault inputs).
bool Echo(daos::dbgfs::PseudoFs& fs, const std::string& content,
          const std::string& path) {
  std::string error;
  if (fs.Write(path, content, &error)) {
    std::printf("$ echo '%s' > %s\n", content.c_str(), path.c_str());
    return true;
  }
  std::fprintf(stderr, "$ echo '%s' > %s   # write error: %s\n",
               content.c_str(), path.c_str(), error.c_str());
  return false;
}

void Cat(daos::dbgfs::PseudoFs& fs, const std::string& path) {
  std::printf("$ cat %s\n%s", path.c_str(),
              fs.Read(path).value_or("<unreadable>\n").c_str());
}

/// One supervised kdamond over the demo workload: the lifecycle verbs all
/// operate on this stack through the /lifecycle control files.
struct SupervisedRun {
  daos::sim::System system;
  daos::sim::Process* proc = nullptr;
  daos::dbgfs::PseudoFs fs;
  daos::lifecycle::KdamondSupervisor supervisor;
  daos::dbgfs::Mount lifecycle_fs;

  SupervisedRun()
      : system(daos::sim::MachineSpec::I3Metal().GuestOf(),
               daos::sim::SwapConfig::Zram(), daos::sim::ThpMode::kNever,
               5 * daos::kUsPerMs),
        supervisor(MakeConfig()),
        lifecycle_fs(daos::dbgfs::MountLifecycle(&fs, &supervisor)) {
    const daos::workload::WorkloadProfile* profile =
        daos::workload::FindProfile("parsec3/freqmine");
    proc = &system.AddProcess(daos::workload::ToProcessParams(*profile),
                              daos::workload::MakeSource(*profile, 11));
    supervisor.AttachTo(system, {&proc->space()});
  }

  static daos::lifecycle::SupervisorConfig MakeConfig() {
    daos::lifecycle::SupervisorConfig config;
    config.recorder_every = daos::kUsPerSec;
    return config;
  }
};

int RunCommit(const char* bundle_path) {
  const std::optional<std::string> bundle = daos::ReadFile(bundle_path);
  if (!bundle.has_value()) {
    std::fprintf(stderr, "cannot read bundle file '%s'\n", bundle_path);
    return 1;
  }
  SupervisedRun run;
  std::string error;
  if (!run.supervisor.InstallSchemesFromText("min max min min 2s max pageout",
                                             &error)) {
    std::fprintf(stderr, "initial scheme install failed: %s\n", error.c_str());
    return 1;
  }
  run.system.Run(5 * daos::kUsPerSec);
  if (!Echo(run.fs, *bundle, "/lifecycle/commit")) {
    // Rejected bundle: the running configuration is untouched, and the
    // non-zero exit is the scriptable signal (set -e style).
    Cat(run.fs, "/lifecycle/commit");
    return 1;
  }
  run.system.Run(5 * daos::kUsPerSec);
  Cat(run.fs, "/lifecycle/commit");
  Cat(run.fs, "/lifecycle/state");
  return 0;
}

int RunCheckpoint(const char* out_path) {
  SupervisedRun run;
  std::string error;
  if (!run.supervisor.InstallSchemesFromText("min max min min 2s max pageout",
                                             &error)) {
    std::fprintf(stderr, "initial scheme install failed: %s\n", error.c_str());
    return 1;
  }
  run.system.Run(10 * daos::kUsPerSec);
  const std::optional<std::string> checkpoint =
      run.fs.Read("/lifecycle/checkpoint");
  if (!checkpoint.has_value() || !daos::WriteFile(out_path, *checkpoint)) {
    std::fprintf(stderr, "cannot write checkpoint to '%s'\n", out_path);
    return 1;
  }
  std::printf("checkpoint written to %s (%zu bytes, t=%llus)\n", out_path,
              checkpoint->size(),
              static_cast<unsigned long long>(run.system.Now() /
                                              daos::kUsPerSec));
  Cat(run.fs, "/lifecycle/state");
  return 0;
}

/// `daos_ctl record <workload> <out.dtr>`: run the workload with the
/// /trace plane armed and save the captured daos-trace v1 blob. The tap is
/// armed before the first quantum, so the trace starts with the BuildLayout
/// maps and a replay reconstructs the address space from the trace alone.
int RunRecord(const char* workload, const char* out_path) {
  using namespace daos;
  std::string error;
  const std::optional<workload::WorkloadProfile> profile =
      workload::ResolveProfile(workload, &error);
  if (!profile.has_value()) {
    std::fprintf(stderr, "record: %s\n", error.c_str());
    return 1;
  }
  sim::System system(sim::MachineSpec::I3Metal().GuestOf(),
                     sim::SwapConfig::Zram(), sim::ThpMode::kNever,
                     5 * kUsPerMs);
  sim::Process& proc = system.AddProcess(workload::ToProcessParams(*profile),
                                         workload::MakeSource(*profile, 11));

  trace::TraceMeta meta;
  meta.name = profile->name;
  meta.quantum_us = 5 * kUsPerMs;
  meta.data_bytes = profile->data_bytes;
  meta.runtime_s = profile->runtime_s;
  meta.mem_boundness = profile->mem_boundness;
  meta.thp_gain = profile->thp_gain;
  meta.zram_ratio = profile->zram_ratio;

  dbgfs::PseudoFs fs;
  dbgfs::TraceFs trace_fs(&fs, &proc.space(), meta);
  if (!Echo(fs, "on", "/trace/record")) return 1;
  system.Run(900 * kUsPerSec);
  if (!Echo(fs, "off", "/trace/record")) return 1;
  const std::optional<std::string> blob = fs.Read("/trace/data");
  if (!blob.has_value() || !daos::WriteFile(out_path, *blob)) {
    std::fprintf(stderr, "cannot write trace to '%s'\n", out_path);
    return 1;
  }
  Cat(fs, "/trace/status");
  const trace::TraceWriter* writer = trace_fs.writer();
  const double raw_bytes =
      static_cast<double>(writer->events()) * trace::kRawEventBytes;
  std::printf("trace written to %s: %llu events in %zu bytes (%.2fx vs "
              "fixed-width)\n",
              out_path, static_cast<unsigned long long>(writer->events()),
              blob->size(),
              blob->empty() ? 0.0 : raw_bytes / static_cast<double>(
                                                    blob->size()));
  return 0;
}

/// `daos_ctl replay <in.dtr>`: run the trace as a first-class workload
/// through the same experiment runner every figure bench uses. A rejected
/// trace exits non-zero with the parser's line/offset-accurate error.
int RunReplay(const char* in_path) {
  using namespace daos;
  std::string error;
  const std::optional<workload::WorkloadProfile> profile =
      workload::ResolveProfile(std::string("trace:") + in_path, &error);
  if (!profile.has_value()) {
    std::fprintf(stderr, "replay: %s\n", error.c_str());
    return 1;
  }
  analysis::ExperimentOptions options;
  options.apply_runtime_noise = false;
  const analysis::ExperimentResult result =
      analysis::RunWorkload(*profile, analysis::Config::kBaseline, options);
  std::printf("replayed %s: runtime %.2f s, peak RSS %s, %llu major "
              "faults%s\n",
              profile->name.c_str(), result.runtime_s,
              FormatSize(result.peak_rss_bytes).c_str(),
              static_cast<unsigned long long>(result.major_faults),
              result.finished ? "" : " (did not finish)");
  return 0;
}

/// `daos_ctl ingest <in.txt> <out.dtr>`: lackey/CSV text -> daos-trace v1.
int RunIngest(const char* in_path, const char* out_path) {
  using namespace daos;
  const std::optional<std::string> text = daos::ReadFile(in_path);
  if (!text.has_value()) {
    std::fprintf(stderr, "cannot read trace text '%s'\n", in_path);
    return 1;
  }
  // Trace name: the input's basename, extension stripped.
  std::string name = in_path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name.erase(0, slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name.erase(dot);

  trace::IngestError ingest_error;
  const std::optional<trace::Trace> converted =
      trace::IngestText(*text, name, trace::IngestOptions{}, &ingest_error);
  if (!converted.has_value()) {
    std::fprintf(stderr, "ingest: %s: line %d: %s\n", in_path,
                 ingest_error.line_number, ingest_error.message.c_str());
    return 1;
  }
  std::string write_error;
  if (!trace::WriteTraceFile(out_path, *converted, &write_error)) {
    std::fprintf(stderr, "cannot write trace to '%s': %s\n", out_path,
                 write_error.c_str());
    return 1;
  }
  std::printf("ingested %s: %zu events over %.2f s of simulated time -> "
              "%s (%llu data bytes)\n",
              in_path, converted->events.size(),
              static_cast<double>(converted->Duration()) / kUsPerSec,
              out_path,
              static_cast<unsigned long long>(converted->meta.data_bytes));
  return 0;
}

int RunRestore(const char* in_path) {
  const std::optional<std::string> checkpoint = daos::ReadFile(in_path);
  if (!checkpoint.has_value()) {
    std::fprintf(stderr, "cannot read checkpoint file '%s'\n", in_path);
    return 1;
  }
  SupervisedRun run;
  std::string error;
  if (!run.fs.Write("/lifecycle/checkpoint", *checkpoint, &error)) {
    std::fprintf(stderr, "restore rejected: %s\n", error.c_str());
    return 1;
  }
  std::printf("restored %zu bytes from %s; resuming monitoring\n",
              checkpoint->size(), in_path);
  run.system.Run(5 * daos::kUsPerSec);
  Cat(run.fs, "/lifecycle/state");
  return 0;
}

/// A small fleet the fleet verbs can run in a couple of seconds: 4 shards
/// of 8 servers each, fully deterministic (no cold strays).
daos::fleet::FleetConfig DemoFleetConfig() {
  daos::fleet::FleetConfig config;
  config.nr_shards = 4;
  config.workload.nr_processes = 8;
  config.workload.rss_per_process = 16 * daos::MiB;
  config.workload.cold_touch_period_s = 0;
  config.machine = {"fleet-demo", 4, 3.0, daos::GiB};
  config.swap = daos::sim::SwapConfig::Zram();
  config.quantum = 5 * daos::kUsPerMs;
  config.epoch = 250 * daos::kUsPerMs;
  return config;
}

/// `daos_ctl tier-status`: the §3.6 workflow against a tiered guest. The
/// geometry goes in through /tier/geometry (before anything is mapped, the
/// only time the write is legal), the migrate schemes through
/// /damon/schemes, and the resulting placement comes back out of
/// /tier/status — string files end to end, like every other verb.
int RunTierStatus() {
  using namespace daos;
  sim::System system(sim::MachineSpec::I3Metal().GuestOf(),
                     sim::SwapConfig::Zram(), sim::ThpMode::kNever,
                     5 * kUsPerMs);
  dbgfs::PseudoFs fs;
  const dbgfs::Mount tier_fs = dbgfs::MountTier(&fs, &system.machine());

  bool ok = true;
  // Small fast tier on purpose: the workload's hot set cannot all start
  // there, so the migrate schemes have real promotion work to show.
  ok &= Echo(fs, "dram 96M\ncxl 1G lat=0.6 bw=8G", "/tier/geometry");

  const workload::WorkloadProfile* profile =
      workload::FindProfile("parsec3/freqmine");
  sim::Process& proc = system.AddProcess(workload::ToProcessParams(*profile),
                                         workload::MakeSource(*profile, 11));
  dbgfs::DamonDbgfs damon_fs(&system, &fs);

  ok &= Echo(fs, std::to_string(proc.pid()), "/damon/target_ids");
  ok &= Echo(fs,
             "min max 1 max min max migrate_hot "
             "quota_sz=64M quota_reset_ms=1000\n"
             "min max min min 2s max migrate_cold "
             "quota_sz=64M quota_reset_ms=1000",
             "/damon/schemes");
  ok &= Echo(fs, "on", "/damon/monitor_on");
  if (!ok) return 1;

  system.Run(60 * kUsPerSec);
  std::printf("\n");
  Cat(fs, "/tier/geometry");
  Cat(fs, "/tier/status");
  // A geometry change under live frames must fail like offlining populated
  // memory: show the rejection the same way a script would see it.
  Echo(fs, "dram 1G", "/tier/geometry");
  return 0;
}

int RunFleetStatus() {
  daos::fleet::FleetController fleet(DemoFleetConfig());
  daos::dbgfs::PseudoFs fs;
  const daos::dbgfs::Mount fleet_fs = daos::dbgfs::MountFleet(&fs, &fleet);
  for (int epoch = 0; epoch < 8; ++epoch) fleet.RunEpoch();
  Cat(fs, "/fleet/status");
  Cat(fs, "/fleet/quarantine");
  return 0;
}

int RunFleetRollout(const char* spec_path) {
  const std::optional<std::string> spec = daos::ReadFile(spec_path);
  if (!spec.has_value()) {
    std::fprintf(stderr, "cannot read rollout spec '%s'\n", spec_path);
    return 1;
  }
  daos::fleet::FleetController fleet(DemoFleetConfig());
  daos::dbgfs::PseudoFs fs;
  const daos::dbgfs::Mount fleet_fs = daos::dbgfs::MountFleet(&fs, &fleet);
  // Warm up: monitors prime, schemes start applying, health has a baseline.
  for (int epoch = 0; epoch < 4; ++epoch) fleet.RunEpoch();
  if (!Echo(fs, *spec, "/fleet/rollout")) {
    // Rejected spec: nothing staged anywhere, non-zero exit for scripts.
    Cat(fs, "/fleet/rollout");
    return 1;
  }
  const daos::fleet::RolloutState state = fleet.RunRollout();
  Cat(fs, "/fleet/status");
  std::printf("rollout finished: %s\n",
              std::string(daos::fleet::RolloutStateName(state)).c_str());
  return state == daos::fleet::RolloutState::kPromoted ? 0 : 1;
}

int RunDemo();

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const char* verb = argv[1];
    if (std::strcmp(verb, "commit") == 0 && argc == 3)
      return RunCommit(argv[2]);
    if (std::strcmp(verb, "checkpoint") == 0 && argc == 3)
      return RunCheckpoint(argv[2]);
    if (std::strcmp(verb, "restore") == 0 && argc == 3)
      return RunRestore(argv[2]);
    if (std::strcmp(verb, "record") == 0 && argc == 4)
      return RunRecord(argv[2], argv[3]);
    if (std::strcmp(verb, "replay") == 0 && argc == 3)
      return RunReplay(argv[2]);
    if (std::strcmp(verb, "ingest") == 0 && argc == 4)
      return RunIngest(argv[2], argv[3]);
    if (std::strcmp(verb, "tier-status") == 0 && argc == 2)
      return RunTierStatus();
    if (std::strcmp(verb, "fleet-status") == 0 && argc == 2)
      return RunFleetStatus();
    if (std::strcmp(verb, "fleet-rollout") == 0 && argc == 3)
      return RunFleetRollout(argv[2]);
    std::fprintf(stderr,
                 "usage: daos_ctl                      # debugfs demo\n"
                 "       daos_ctl commit <bundle>     # staged reconfig\n"
                 "       daos_ctl checkpoint <file>   # save state\n"
                 "       daos_ctl restore <file>      # boot from state\n"
                 "       daos_ctl record <workload> <out.dtr>\n"
                 "       daos_ctl replay <in.dtr>\n"
                 "       daos_ctl ingest <in.txt> <out.dtr>\n"
                 "       daos_ctl tier-status         # tiered-memory demo\n"
                 "       daos_ctl fleet-status        # demo fleet health\n"
                 "       daos_ctl fleet-rollout <spec>  # canary rollout\n");
    return 2;
  }
  return RunDemo();
}

namespace {

int RunDemo() {
  using namespace daos;

  const workload::WorkloadProfile* profile =
      workload::FindProfile("parsec3/freqmine");
  sim::System system(sim::MachineSpec::I3Metal().GuestOf(),
                     sim::SwapConfig::Zram(), sim::ThpMode::kNever,
                     5 * kUsPerMs);
  sim::Process& proc = system.AddProcess(workload::ToProcessParams(*profile),
                                         workload::MakeSource(*profile, 11));

  dbgfs::PseudoFs fs;
  dbgfs::DamonDbgfs damon_fs(&system, &fs);
  dbgfs::ProcFs procfs(&system, &fs);
  damon::Recorder recorder;
  recorder.Attach(damon_fs.context(), /*every=*/kUsPerSec);

  // The unified telemetry plane: monitor + schemes + system publish into
  // one registry/ring, exposed read-only under /telemetry.
  telemetry::MetricsRegistry metrics;
  telemetry::TraceBuffer trace(1024);
  damon_fs.SetTelemetry(metrics, &trace);
  system.AttachTelemetry(&metrics, &trace);
  const dbgfs::Mount telemetry_fs =
      dbgfs::MountTelemetry(&fs, &metrics, &trace);

  std::printf("workload %s started as pid %d\n\n", profile->name.c_str(),
              proc.pid());

  // Any rejected write flips the exit status, like `set -e` would: a
  // mis-typed scheme must not silently run the workload unmonitored.
  bool ok = true;
  Cat(fs, "/damon/attrs");
  ok &= Echo(fs, std::to_string(proc.pid()), "/damon/target_ids");
  // A governed scheme: reclaim is capped at 32M per second of sim time and
  // the budget is spent on the coldest/largest candidates first. The extra
  // clauses round-trip through the same debugfs read below.
  ok &= Echo(fs,
             "min max min min 2s max pageout "
             "quota_sz=32M quota_reset_ms=1000 prio_weights=3,7,1",
             "/damon/schemes");
  ok &= Echo(fs, "on", "/damon/monitor_on");

  std::printf("\npolling /proc/%d/status while the workload runs:\n",
              proc.pid());
  for (int tick = 0; tick < 8 && !proc.finished(); ++tick) {
    system.Run(5 * kUsPerSec);
    std::printf("  t=%3llus  VmRSS %s\n",
                static_cast<unsigned long long>(system.Now() / kUsPerSec),
                FormatSize(procfs.ReadRssBytes(proc.pid())).c_str());
  }
  system.Run(600 * kUsPerSec);  // let it finish

  std::printf("\n");
  Cat(fs, "/damon/schemes");
  std::printf("\n");
  Cat(fs, "/telemetry/metrics");
  ok &= Echo(fs, "off", "/damon/monitor_on");

  // Save the monitoring record and render its heatmap, Figure-6 style.
  const std::string rec_path = "/tmp/daos_ctl.rec";
  if (!damon::WriteTraceFile(rec_path, recorder.snapshots())) {
    std::fprintf(stderr, "cannot write record file '%s'\n", rec_path.c_str());
    return 1;
  }
  std::printf("\nmonitoring record written to %s (%zu snapshots)\n",
              rec_path.c_str(), recorder.snapshots().size());
  const auto reloaded = damon::ReadTraceFile(rec_path);
  if (!reloaded) {
    std::fprintf(stderr, "cannot reload record file '%s'\n", rec_path.c_str());
    return 1;
  }
  const analysis::Heatmap map = analysis::BuildHeatmap(*reloaded, 0, 10, 64);
  std::printf("access heatmap (from the reloaded record):\n%s",
              analysis::RenderAscii(map).c_str());
  return ok ? 0 : 1;
}

}  // namespace
