// Telemetry golden: pins the exact bytes every mirrored counter publishes.
//
// Three stacks run with their own quiet fault planes (so DAOS_FAULTS cannot
// move them) and fold their exported views into FNV-1a digests:
//   - an untiered THP run under swap pressure: the System's sim.* mirror
//     (reclaim, swap, THP, touch-log counters and their tracepoints) plus
//     the damon.ctx0.* and damos.* mirrors;
//   - a tiered dram/cxl run with migrate schemes: the sim.tier.* counters
//     and gauges on top of the above;
//   - a supervised kdamond after a forced crash and restore: its StateText
//     and the lifecycle.* / damon.ctx0.* values, once live and once through
//     a late bind that must catch up on everything counted so far.
// Any change to a registry name, value, update time or tracepoint order
// moves a digest.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "damon/monitor.hpp"
#include "damon/primitives.hpp"
#include "damos/engine.hpp"
#include "fault/fault.hpp"
#include "lifecycle/supervisor.hpp"
#include "sim/address_space.hpp"
#include "sim/system.hpp"
#include "sim/tier.hpp"
#include "telemetry/export.hpp"
#include "util/hash.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

namespace daos {
namespace {

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t Digest(const telemetry::MetricsRegistry& registry,
                     const telemetry::TraceBuffer& trace) {
  Fnv1a h;
  h.Mix(telemetry::ToPrometheusText(registry));
  h.Mix(telemetry::ToJsonl(trace));
  return h.value();
}

workload::WorkloadProfile GoldenProfile(std::uint64_t data_bytes) {
  workload::WorkloadProfile p;
  p.name = "test/telemetry-golden";
  p.suite = "test";
  p.data_bytes = data_bytes;
  p.runtime_s = 12;
  p.noise = 0;
  p.groups = {workload::GroupSpec{0.3, 0.0, 1.0, 0.3},
              workload::GroupSpec{0.3, 2.0, 0.5, 0.3},
              workload::GroupSpec{0.4, -1.0, 1.0, 0.1}};
  return p;
}

/// One monitored workload on its own System, every mirror bound to one
/// registry and one trace ring.
struct SimRun {
  SimRun(const sim::MachineSpec& spec, sim::ThpMode thp,
         const char* tier_geometry, std::uint64_t data_bytes,
         const char* schemes)
      : system(spec, sim::SwapConfig::Zram(), thp, 5 * kUsPerMs),
        ctx(damon::MonitoringAttrs::PaperDefaults(), /*seed=*/11),
        trace(1 << 16) {
    system.SetFaultPlane(&quiet);
    if (tier_geometry != nullptr) {
      sim::TierGeometry geo;
      std::string error;
      EXPECT_TRUE(sim::ParseTierGeometry(tier_geometry, &geo, &error))
          << error;
      EXPECT_TRUE(system.machine().SetTierGeometry(geo, &error)) << error;
    }
    system.AttachTelemetry(&registry, &trace);
    const workload::WorkloadProfile profile = GoldenProfile(data_bytes);
    sim::Process& proc =
        system.AddProcess(workload::ToProcessParams(profile),
                          workload::MakeSource(profile, /*seed=*/3));
    ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(
        &proc.space(), system.machine().costs().monitor_check_us));
    EXPECT_TRUE(engine.InstallFromText(schemes));
    engine.Attach(ctx);
    engine.SetMachine(&system.machine());
    ctx.BindTelemetry(registry, &trace);
    engine.BindTelemetry(registry, &trace);
    system.RegisterDaemon(
        [this](SimTimeUs now, SimTimeUs q) { return ctx.Step(now, q); });
    system.Run(20 * kUsPerSec);
  }

  double Value(const char* name) const {
    return registry.Snapshot().Value(name);
  }

  fault::FaultPlane quiet;
  sim::System system;
  damon::DamonContext ctx;
  damos::SchemesEngine engine;
  telemetry::MetricsRegistry registry;
  telemetry::TraceBuffer trace;
};

TEST(TelemetryGoldenTest, UntieredThpSwapRun) {
  const SimRun run(sim::MachineSpec{"golden", 4, 3.0, 48 * MiB},
                   sim::ThpMode::kAlways, nullptr, 64 * MiB,
                   "min max min min 2s max pageout\n");
  // The run must reach every event-carrying counter it pins.
  EXPECT_GT(run.Value("sim.reclaim.pages"), 0.0);
  EXPECT_GT(run.Value("sim.swap.outs"), 0.0);
  EXPECT_GT(run.Value("sim.swap.ins"), 0.0);
  EXPECT_GT(run.Value("sim.thp.collapses"), 0.0);
  EXPECT_EQ(run.trace.dropped(), 0u);
  const std::string prom = telemetry::ToPrometheusText(run.registry);
  EXPECT_EQ(prom.find("sim_tier"), std::string::npos)
      << "an untiered machine published a tier metric";
  EXPECT_EQ(Hex(Digest(run.registry, run.trace)), "6e9e22ae00f0ffcd");
}

TEST(TelemetryGoldenTest, TieredMigrateRun) {
  const SimRun run(sim::MachineSpec{"golden", 4, 3.0, 4 * GiB},
                   sim::ThpMode::kNever, "dram 24M\ncxl 96M lat=0.6 bw=8G",
                   64 * MiB,
                   "min max 1 max min max migrate_hot quota_sz=32M "
                   "quota_reset_ms=1000\n"
                   "min max min min 1s max migrate_cold quota_sz=32M "
                   "quota_reset_ms=1000\n");
  EXPECT_GT(run.Value("sim.tier.promoted_pages"), 0.0);
  EXPECT_GT(run.Value("sim.tier.demoted_pages"), 0.0);
  EXPECT_GT(run.Value("sim.tier.slow_touches"), 0.0);
  EXPECT_EQ(run.trace.dropped(), 0u);
  EXPECT_EQ(Hex(Digest(run.registry, run.trace)), "a8fa1f44de7d6a12");
}

TEST(TelemetryGoldenTest, SupervisorAfterCrashAndRestore) {
  constexpr Addr kBase = 1 * GiB;
  constexpr std::uint64_t kHeap = 64 * MiB;
  fault::FaultPlane plane;
  sim::System system(sim::MachineSpec{"lc", 4, 3.0, 4 * GiB},
                     sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &system.machine(), 3.0);
  lifecycle::SupervisorConfig config;
  config.checkpoint_interval = 500 * kUsPerMs;
  config.heartbeat_interval = 50 * kUsPerMs;
  config.heartbeat_timeout = 150 * kUsPerMs;
  config.restart_backoff = 50 * kUsPerMs;
  lifecycle::KdamondSupervisor supervisor(config);
  space.Map(kBase, kHeap, "heap");
  supervisor.AttachTo(system, {&space});
  system.SetFaultPlane(&plane);
  std::string error;
  ASSERT_TRUE(supervisor.InstallSchemesFromText(
      "min max min min min max stat\n", &error))
      << error;
  telemetry::MetricsRegistry registry;
  telemetry::TraceBuffer trace(1 << 16);
  supervisor.BindTelemetry(registry, &trace);

  fault::FaultSpec crash;
  crash.once_at = 1700;
  plane.Arm(fault::kDaemonCrash, crash);
  system.Run(4 * kUsPerSec);
  ASSERT_EQ(supervisor.counters().crashes, 1u);
  ASSERT_EQ(supervisor.counters().restores, 1u);
  EXPECT_EQ(trace.dropped(), 0u);

  Fnv1a live;
  live.Mix(supervisor.StateText());
  live.Mix(telemetry::ToPrometheusText(registry));
  live.Mix(telemetry::ToJsonl(trace));
  EXPECT_EQ(Hex(live.value()), "79340a69a5b56ea4");

  // A registry bound after the fact catches up on every count so far.
  telemetry::MetricsRegistry late;
  supervisor.BindTelemetry(late);
  const telemetry::MetricsSnapshot snap = late.Snapshot();
  EXPECT_EQ(snap.Value("lifecycle.crashes"), 1.0);
  EXPECT_EQ(snap.Value("lifecycle.restores"), 1.0);
  Fnv1a caught_up;
  caught_up.Mix(telemetry::ToPrometheusText(late));
  EXPECT_EQ(Hex(caught_up.value()), "353b62739690b29f");
}

}  // namespace
}  // namespace daos
