// End-to-end checks that every layer publishes through the unified
// telemetry plane: the monitor mirror matches MonitorCounters, the schemes
// engine mirrors DAMOS stats, the System snapshot hook publishes sim
// gauges, the dbgfs file serves the exported view, and RunWorkload ships a
// snapshot whose cpu_fraction is the value fig7 consumes.
#include <gtest/gtest.h>

#include "analysis/experiment.hpp"
#include "damon/monitor.hpp"
#include "damon/primitives.hpp"
#include "damos/engine.hpp"
#include "dbgfs/pseudo_fs.hpp"
#include "dbgfs/views.hpp"
#include "sim/system.hpp"
#include "telemetry/export.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

namespace daos {
namespace {

workload::WorkloadProfile SmallProfile() {
  workload::WorkloadProfile p;
  p.name = "test/telemetry";
  p.suite = "test";
  p.data_bytes = 64 * MiB;
  p.runtime_s = 20;
  p.noise = 0;
  p.groups = {workload::GroupSpec{0.25, 0.0, 1.0, 0.3},
              workload::GroupSpec{0.75, -1.0, 1.0, 0.2}};
  return p;
}

struct Stack {
  Stack()
      : system(sim::MachineSpec::I3Metal().GuestOf(), sim::SwapConfig::Zram(),
               sim::ThpMode::kNever, 5 * kUsPerMs),
        proc(system.AddProcess(workload::ToProcessParams(SmallProfile()),
                               workload::MakeSource(SmallProfile(), 7))),
        ctx(damon::MonitoringAttrs::PaperDefaults(), /*seed=*/5),
        trace(512) {
    ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(
        &proc.space(), system.machine().costs().monitor_check_us));
    engine.InstallFromText("min max min min min max stat\n");
    engine.Attach(ctx);
    ctx.BindTelemetry(registry, &trace);
    engine.BindTelemetry(registry, &trace);
    system.AttachTelemetry(&registry, &trace);
    system.RegisterDaemon(
        [this](SimTimeUs now, SimTimeUs q) { return ctx.Step(now, q); });
  }

  sim::System system;
  sim::Process& proc;
  damon::DamonContext ctx;
  damos::SchemesEngine engine;
  telemetry::MetricsRegistry registry;
  telemetry::TraceBuffer trace;
};

TEST(TelemetryWiringTest, MonitorCountersMirrorIntoRegistry) {
  Stack s;
  s.system.Run(30 * kUsPerSec);

  const damon::MonitorCounters& c = s.ctx.counters();
  ASSERT_GT(c.samples, 0u);
  ASSERT_GT(c.aggregations, 0u);
  const telemetry::MetricsSnapshot snap = s.registry.Snapshot();
  EXPECT_EQ(snap.Value("damon.ctx0.samples"),
            static_cast<double>(c.samples));
  EXPECT_EQ(snap.Value("damon.ctx0.aggregations"),
            static_cast<double>(c.aggregations));
  EXPECT_EQ(snap.Value("damon.ctx0.region_splits"),
            static_cast<double>(c.region_splits));
  EXPECT_EQ(snap.Value("damon.ctx0.region_merges"),
            static_cast<double>(c.region_merges));
  EXPECT_DOUBLE_EQ(snap.Value("damon.ctx0.cpu_us"), c.cpu_us);
  EXPECT_EQ(snap.Value("damon.ctx0.nr_regions"),
            static_cast<double>(s.ctx.TotalRegions()));
}

TEST(TelemetryWiringTest, LateBindCatchesUpExistingCounts) {
  Stack s;
  s.system.Run(10 * kUsPerSec);
  telemetry::MetricsRegistry late;
  s.ctx.BindTelemetry(late, nullptr, "damon.late");
  EXPECT_EQ(late.Snapshot().Value("damon.late.samples"),
            static_cast<double>(s.ctx.counters().samples));
}

TEST(TelemetryWiringTest, SchemesEngineMirrorsDamosStats) {
  Stack s;
  s.system.Run(30 * kUsPerSec);

  const damos::SchemeStats& st = s.engine.schemes().front().stats();
  ASSERT_GT(st.nr_tried, 0u);
  const telemetry::MetricsSnapshot snap = s.registry.Snapshot();
  EXPECT_EQ(snap.Value("damos.scheme0.nr_tried"),
            static_cast<double>(st.nr_tried));
  EXPECT_EQ(snap.Value("damos.scheme0.sz_tried"),
            static_cast<double>(st.sz_tried));
  EXPECT_EQ(snap.Value("damos.scheme0.nr_applied"),
            static_cast<double>(st.nr_applied));
  EXPECT_EQ(snap.Value("damos.scheme0.sz_applied"),
            static_cast<double>(st.sz_applied));
}

TEST(TelemetryWiringTest, TracepointsFlow) {
  Stack s;
  s.system.Run(30 * kUsPerSec);

  bool saw_sample = false, saw_aggregation = false;
  for (const telemetry::TraceEvent& e : s.trace.Events()) {
    saw_sample |= e.kind == telemetry::EventKind::kSample;
    saw_aggregation |= e.kind == telemetry::EventKind::kAggregation;
  }
  EXPECT_TRUE(saw_sample);
  EXPECT_TRUE(saw_aggregation);
  EXPECT_GT(s.trace.pushed(), 0u);
  EXPECT_LE(s.trace.size(), s.trace.capacity());
}

TEST(TelemetryWiringTest, SystemSnapshotPublishesSimGauges) {
  Stack s;
  s.system.Run(30 * kUsPerSec);
  const telemetry::MetricsSnapshot snap = s.registry.Snapshot();
  EXPECT_NE(snap.Find("sim.dram_used_bytes"), nullptr);
  EXPECT_NE(snap.Find("sim.processes.active"), nullptr);
  EXPECT_GT(snap.Value("sim.dram_used_bytes"), 0.0);
}

TEST(TelemetryWiringTest, DbgfsTelemetryFileServesExports) {
  Stack s;
  dbgfs::PseudoFs fs;
  const dbgfs::Mount tfs = dbgfs::MountTelemetry(&fs, &s.registry, &s.trace);
  s.system.Run(20 * kUsPerSec);

  const auto metrics = fs.Read("/telemetry/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("damon_ctx0_samples"), std::string::npos);
  EXPECT_NE(metrics->find("damos_scheme0_nr_tried"), std::string::npos);

  const auto events = fs.Read("/telemetry/events");
  ASSERT_TRUE(events.has_value());
  EXPECT_NE(events->find("\"kind\":\"sample\""), std::string::npos);

  // Read-only, like the kernel's stat files.
  std::string error;
  EXPECT_FALSE(fs.Write("/telemetry/metrics", "x", &error));
}

TEST(TelemetryWiringTest, RunWorkloadShipsSnapshotWithCpuFraction) {
  workload::WorkloadProfile profile = SmallProfile();
  profile.data_bytes = 128 * MiB;
  analysis::ExperimentOptions opt;
  opt.max_time = 120 * kUsPerSec;
  opt.apply_runtime_noise = false;

  const analysis::ExperimentResult rec =
      analysis::RunWorkload(profile, analysis::Config::kRec, opt);
  EXPECT_GT(rec.telemetry.Value("damon.ctx0.cpu_fraction"), 0.0);
  EXPECT_DOUBLE_EQ(rec.telemetry.Value("damon.ctx0.cpu_fraction"),
                   rec.monitor_cpu_fraction);
  EXPECT_GT(rec.telemetry.Value("damon.ctx0.samples"), 0.0);

  const analysis::ExperimentResult base =
      analysis::RunWorkload(profile, analysis::Config::kBaseline, opt);
  EXPECT_FALSE(base.telemetry.empty());  // sim gauges even without monitoring
  EXPECT_DOUBLE_EQ(base.telemetry.Value("damon.ctx0.cpu_fraction", -1.0), -1.0);
}

}  // namespace
}  // namespace daos
