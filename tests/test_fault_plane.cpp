#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dbgfs/damon_dbgfs.hpp"
#include "dbgfs/views.hpp"
#include "sim/system.hpp"
#include "telemetry/metrics.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

namespace daos::fault {
namespace {

std::vector<bool> Schedule(FaultPoint& point, int checks) {
  std::vector<bool> fired;
  fired.reserve(checks);
  for (int i = 0; i < checks; ++i) fired.push_back(point.Check());
  return fired;
}

TEST(FaultPointTest, DisarmedNeverFiresAndCountsNothing) {
  FaultPlane plane(7);
  FaultPoint& p = plane.Point(kSwapWriteError);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(p.Check());
  EXPECT_EQ(p.hits(), 0u);
  EXPECT_EQ(p.fires(), 0u);
}

TEST(FaultPointTest, EveryNthFiresOnExactOrdinals) {
  FaultPlane plane(7);
  FaultPoint& p = plane.Point("x");
  p.Arm(FaultSpec{0.0, 3, 0});
  const std::vector<bool> fired = Schedule(p, 9);
  const std::vector<bool> want = {false, false, true, false, false,
                                  true,  false, false, true};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(p.hits(), 9u);
  EXPECT_EQ(p.fires(), 3u);
}

TEST(FaultPointTest, OnceFiresExactlyOnceAtOrdinal) {
  FaultPlane plane(7);
  FaultPoint& p = plane.Point("x");
  p.Arm(FaultSpec{0.0, 0, 4});
  const std::vector<bool> fired = Schedule(p, 10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i == 3) << "check " << i;
  EXPECT_EQ(p.fires(), 1u);
}

TEST(FaultPointTest, ProbabilityFiresRoughlyAtRate) {
  FaultPlane plane(7);
  FaultPoint& p = plane.Point("x");
  p.Arm(FaultSpec{0.2, 0, 0});
  (void)Schedule(p, 10000);
  EXPECT_GT(p.fires(), 1500u);
  EXPECT_LT(p.fires(), 2500u);
}

TEST(FaultPointTest, CombinedTriggersUnion) {
  FaultPlane plane(7);
  FaultPoint& p = plane.Point("x");
  p.Arm(FaultSpec{0.0, 4, 2});
  const std::vector<bool> fired = Schedule(p, 8);
  const std::vector<bool> want = {false, true,  false, true,
                                  false, false, false, true};
  EXPECT_EQ(fired, want);
}

TEST(FaultPointTest, RearmReplaysIdenticalSchedule) {
  FaultPlane plane(99);
  FaultPoint& p = plane.Point("x");
  p.Arm(FaultSpec{0.3, 0, 0});
  const std::vector<bool> first = Schedule(p, 200);
  p.Arm(FaultSpec{0.3, 0, 0});  // rewinds ordinals and the RNG stream
  EXPECT_EQ(Schedule(p, 200), first);
}

TEST(FaultPointTest, CumulativeCountsSurviveRearmAndDisarm) {
  // hits()/fires() reset with every Arm() (the replay contract), but the
  // lifetime totals keep accumulating — windowed chaos campaigns re-arm
  // points at slice boundaries and audit totals at the end of the run.
  FaultPlane plane(3);
  FaultPoint& p = plane.Point("x");
  p.Arm(FaultSpec{0.0, 2, 0});  // every=2
  for (int i = 0; i < 10; ++i) (void)p.Check();
  EXPECT_EQ(p.hits(), 10u);
  EXPECT_EQ(p.fires(), 5u);
  EXPECT_EQ(p.cumulative_hits(), 10u);
  EXPECT_EQ(p.cumulative_fires(), 5u);

  p.Disarm();
  for (int i = 0; i < 4; ++i) (void)p.Check();  // disarmed: counts nothing
  EXPECT_EQ(p.cumulative_hits(), 10u);

  p.Arm(FaultSpec{0.0, 2, 0});
  for (int i = 0; i < 10; ++i) (void)p.Check();
  EXPECT_EQ(p.hits(), 10u) << "per-arm counters reset";
  EXPECT_EQ(p.fires(), 5u);
  EXPECT_EQ(p.cumulative_hits(), 20u) << "lifetime totals must not";
  EXPECT_EQ(p.cumulative_fires(), 10u);
  EXPECT_EQ(p.cumulative_suppressed(), 10u);
}

TEST(FaultPlaneTest, StatusTextShowsCumulativeCounts) {
  FaultPlane plane(9);
  FaultPoint& p = plane.Point("swap.write_error");
  p.Arm(FaultSpec{0.0, 3, 0});
  for (int i = 0; i < 9; ++i) (void)p.Check();
  p.Arm(FaultSpec{0.0, 3, 0});  // resets hits/fires, keeps totals
  for (int i = 0; i < 3; ++i) (void)p.Check();
  const std::string status = plane.StatusText();
  EXPECT_NE(status.find("hits=3"), std::string::npos) << status;
  EXPECT_NE(status.find("fires=1"), std::string::npos) << status;
  EXPECT_NE(status.find("fired=4"), std::string::npos) << status;
  EXPECT_NE(status.find("suppressed=8"), std::string::npos) << status;
}

TEST(FaultPlaneTest, WellKnownPointsCatalogIsCompleteAndDistinct) {
  const auto& points = fault::WellKnownPoints();
  EXPECT_EQ(points.size(), 11u);
  std::set<std::string_view> unique(points.begin(), points.end());
  EXPECT_EQ(unique.size(), points.size());
  for (const std::string_view name : points) {
    EXPECT_NE(name.find('.'), std::string_view::npos) << name;
  }
}

TEST(FaultPlaneTest, SameSeedSameSchedulePerPoint) {
  FaultPlane a(42), b(42);
  a.Point("swap.write_error").Arm(FaultSpec{0.25, 0, 0});
  b.Point("swap.write_error").Arm(FaultSpec{0.25, 0, 0});
  EXPECT_EQ(Schedule(a.Point("swap.write_error"), 500),
            Schedule(b.Point("swap.write_error"), 500));
}

TEST(FaultPlaneTest, StreamsIndependentAcrossPoints) {
  // Interleaving checks on another point must not shift a point's stream.
  FaultPlane a(42), b(42);
  a.Point("one").Arm(FaultSpec{0.25, 0, 0});
  b.Point("one").Arm(FaultSpec{0.25, 0, 0});
  b.Point("two").Arm(FaultSpec{0.5, 0, 0});
  std::vector<bool> from_a, from_b;
  for (int i = 0; i < 500; ++i) {
    from_a.push_back(a.Point("one").Check());
    (void)b.Point("two").Check();
    from_b.push_back(b.Point("one").Check());
  }
  EXPECT_EQ(from_a, from_b);
}

TEST(FaultPlaneTest, ReseedChangesThenReplays) {
  FaultPlane plane(1);
  plane.Point("x").Arm(FaultSpec{0.5, 0, 0});
  const std::vector<bool> seed1 = Schedule(plane.Point("x"), 300);
  plane.Reseed(2);
  plane.Point("x").Arm(FaultSpec{0.5, 0, 0});
  const std::vector<bool> seed2 = Schedule(plane.Point("x"), 300);
  EXPECT_NE(seed1, seed2);
  plane.Reseed(1);
  plane.Point("x").Arm(FaultSpec{0.5, 0, 0});
  EXPECT_EQ(Schedule(plane.Point("x"), 300), seed1);
}

TEST(FaultPlaneTest, ConfigureArmsAndStatusReflects) {
  FaultPlane plane(5);
  std::string error;
  ASSERT_TRUE(plane.Configure(
      "# arm the swap path\n"
      "swap.write_error p=0.2 every=100\n"
      "alloc.frame_fail once=3; thp.collapse_fail off\n",
      &error))
      << error;
  const FaultPoint* swap = plane.Find("swap.write_error");
  ASSERT_NE(swap, nullptr);
  EXPECT_DOUBLE_EQ(swap->spec().probability, 0.2);
  EXPECT_EQ(swap->spec().every_nth, 100u);
  ASSERT_NE(plane.Find("alloc.frame_fail"), nullptr);
  EXPECT_EQ(plane.Find("alloc.frame_fail")->spec().once_at, 3u);
  EXPECT_FALSE(plane.Find("thp.collapse_fail")->armed());
  const std::string status = plane.StatusText();
  EXPECT_NE(status.find("seed 5"), std::string::npos);
  EXPECT_NE(status.find("swap.write_error p=0.2 every=100"),
            std::string::npos);
  EXPECT_NE(status.find("thp.collapse_fail off"), std::string::npos);
}

TEST(FaultPlaneTest, ConfigureIsAllOrNothing) {
  FaultPlane plane(5);
  std::string error;
  EXPECT_FALSE(plane.Configure(
      "swap.write_error p=0.5\nalloc.frame_fail p=nonsense\n", &error));
  EXPECT_NE(error.find("line 2:"), std::string::npos);
  // Line 1 must not have been applied.
  const FaultPoint* swap = plane.Find("swap.write_error");
  EXPECT_TRUE(swap == nullptr || !swap->armed());
}

TEST(FaultPlaneTest, ConfigureRejectsBadDirectives) {
  FaultPlane plane(5);
  std::string error;
  EXPECT_FALSE(plane.Configure("swap.write_error", &error));
  EXPECT_FALSE(plane.Configure("x p=1.5", &error));
  EXPECT_FALSE(plane.Configure("x every=0", &error));
  EXPECT_FALSE(plane.Configure("x frequency=3", &error));
  EXPECT_FALSE(plane.Configure("seed notanumber", &error));
  EXPECT_NE(error.find("line 1:"), std::string::npos);
}

TEST(FaultPlaneTest, TelemetryCountsFires) {
  telemetry::MetricsRegistry registry;
  FaultPlane plane(5);
  plane.BindTelemetry(registry);
  plane.Point("x").Arm(FaultSpec{0.0, 2, 0});
  (void)Schedule(plane.Point("x"), 10);
  EXPECT_EQ(registry.GetCounter("fault.x.fires").value(), 5.0);
}

TEST(FaultFsTest, ControlFileRoundTrip) {
  dbgfs::PseudoFs fs;
  FaultPlane plane(11);
  const dbgfs::Mount fault_fs = dbgfs::MountFault(&fs, &plane);
  std::string error;
  EXPECT_TRUE(fs.Write("/fault", "swap.write_error p=0.1", &error)) << error;
  EXPECT_NE(fs.Read("/fault").value().find("swap.write_error p=0.1"),
            std::string::npos);
  EXPECT_FALSE(fs.Write("/fault", "swap.write_error p=2.0", &error));
  EXPECT_NE(error.find("line 1:"), std::string::npos);
  EXPECT_TRUE(fs.Write("/fault", "reset", &error));
  EXPECT_FALSE(plane.Point(kSwapWriteError).armed());
}

// --- End-to-end degradation -------------------------------------------------

workload::WorkloadProfile ColdHeavyProfile() {
  workload::WorkloadProfile p;
  p.name = "test/faults";
  p.suite = "test";
  p.data_bytes = 96 * MiB;
  p.runtime_s = 12;
  p.noise = 0;
  p.groups = {workload::GroupSpec{0.25, 0.0, 1.0, 0.3},
              workload::GroupSpec{0.75, -1.0, 1.0, 0.2}};
  return p;
}

struct E2eRun {
  sim::SystemMetrics metrics;
  SimTimeUs end_time = 0;
  std::uint64_t scheme_errors = 0;
  std::uint64_t used_frames = 0;
  std::uint64_t used_slots = 0;
  std::uint64_t resident = 0;
  std::uint64_t swapped = 0;
  bool page_state_consistent = true;
  double swap_error_metric = 0.0;
};

E2eRun RunPrclUnderFaults(FaultPlane* plane) {
  sim::System system(sim::MachineSpec::I3Metal().GuestOf(),
                     sim::SwapConfig::Zram(), sim::ThpMode::kNever,
                     5 * kUsPerMs);
  if (plane != nullptr) system.SetFaultPlane(plane);
  telemetry::MetricsRegistry registry;
  system.AttachTelemetry(&registry);

  const workload::WorkloadProfile profile = ColdHeavyProfile();
  sim::Process& proc = system.AddProcess(workload::ToProcessParams(profile),
                                         workload::MakeSource(profile, 31));
  dbgfs::PseudoFs fs;
  dbgfs::DamonDbgfs damon_fs(&system, &fs);
  EXPECT_TRUE(fs.Write("/damon/target_ids", std::to_string(proc.pid())));
  EXPECT_TRUE(fs.Write("/damon/schemes", "min max min min 2s max pageout\n"));
  EXPECT_TRUE(fs.Write("/damon/monitor_on", "on"));

  E2eRun run;
  run.metrics = system.Run(60 * kUsPerSec);
  run.end_time = system.Now();
  for (const damos::Scheme& s : damon_fs.engine().schemes())
    run.scheme_errors += s.stats().nr_errors;
  run.used_frames = system.machine().used_frames();
  run.used_slots = system.machine().swap().used_slots();
  for (const auto& p : system.processes()) {
    const sim::AddressSpace& space = p->space();
    run.resident += space.resident_pages();
    run.swapped += space.swapped_pages();
    for (const sim::Vma& vma : space.vmas()) {
      for (std::size_t i = 0; i < vma.page_count(); ++i) {
        const auto pg = vma.PageAt(vma.AddrOfIndex(i));
        if (pg.Present() && pg.Swapped()) run.page_state_consistent = false;
      }
    }
  }
  run.swap_error_metric = registry.GetCounter("sim.swap.errors").value();
  return run;
}

TEST(FaultE2eTest, SwapWriteErrorsDegradeGracefully) {
  FaultPlane plane(2024);
  plane.Point(kSwapWriteError).Arm(FaultSpec{0.2, 0, 0});
  const E2eRun run = RunPrclUnderFaults(&plane);

  // The run completes and the injected failures surface everywhere they
  // should: machine counters, telemetry, and per-scheme stats.
  ASSERT_FALSE(run.metrics.processes.empty());
  EXPECT_GT(run.metrics.swap_write_errors, 0u);
  EXPECT_GT(run.swap_error_metric, 0.0);
  EXPECT_GT(run.scheme_errors, 0u);
  EXPECT_GT(plane.Point(kSwapWriteError).fires(), 0u);

  // Graceful: no leaked frames, no double-mapped pages. Every used frame
  // belongs to a resident page and every swap slot to a swapped page.
  EXPECT_TRUE(run.page_state_consistent);
  EXPECT_EQ(run.used_frames, run.resident);
  EXPECT_EQ(run.used_slots, run.swapped);
}

TEST(FaultE2eTest, DisarmedPlaneIsBitIdentical) {
  FaultPlane plane(2024);  // points resolve but never arm
  const E2eRun without = RunPrclUnderFaults(nullptr);
  const E2eRun with = RunPrclUnderFaults(&plane);

  EXPECT_EQ(with.end_time, without.end_time);
  EXPECT_EQ(with.used_frames, without.used_frames);
  EXPECT_EQ(with.used_slots, without.used_slots);
  EXPECT_EQ(with.resident, without.resident);
  EXPECT_EQ(with.swapped, without.swapped);
  EXPECT_EQ(with.metrics.reclaimed_pages, without.metrics.reclaimed_pages);
  EXPECT_EQ(with.metrics.swap_ins, without.metrics.swap_ins);
  EXPECT_EQ(with.metrics.swap_outs, without.metrics.swap_outs);
  EXPECT_EQ(with.metrics.swap_write_errors, 0u);
  EXPECT_EQ(with.metrics.oom_kills, 0u);
  ASSERT_EQ(with.metrics.processes.size(), without.metrics.processes.size());
  for (std::size_t i = 0; i < with.metrics.processes.size(); ++i) {
    EXPECT_DOUBLE_EQ(with.metrics.processes[i].runtime_s,
                     without.metrics.processes[i].runtime_s);
  }
}

}  // namespace
}  // namespace daos::fault
