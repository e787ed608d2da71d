#include "sim/system.hpp"

#include <gtest/gtest.h>

namespace daos::sim {
namespace {

class NullSource final : public AccessSource {
 public:
  void BuildLayout(AddressSpace& space) override {
    space.Map(0x10000, kPageSize, "stub");
  }
  TouchStats EmitQuantum(AddressSpace&, SimTimeUs, SimTimeUs) override {
    return {};
  }
};

ProcessParams Work(double seconds) {
  ProcessParams p;
  p.name = "w";
  p.total_work_us = seconds * kUsPerSec;
  p.mem_boundness = 1.0;
  return p;
}

TEST(SystemTest, ClockAdvancesByQuantum) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram(),
                ThpMode::kNever, 5 * kUsPerMs);
  EXPECT_EQ(system.Now(), 0u);
  system.Step();
  EXPECT_EQ(system.Now(), 5 * kUsPerMs);
}

TEST(SystemTest, RunStopsWhenAllProcessesFinish) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  system.AddProcess(Work(0.05), std::make_unique<NullSource>());
  const SystemMetrics m = system.Run(10 * kUsPerSec);
  EXPECT_TRUE(m.processes.front().finished);
  EXPECT_LT(m.elapsed_s, 1.0);
}

TEST(SystemTest, RunStopsAtDeadline) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  ProcessParams forever = Work(0.001);
  forever.run_forever = true;
  system.AddProcess(std::move(forever), std::make_unique<NullSource>());
  const SystemMetrics m = system.Run(50 * kUsPerMs);
  EXPECT_NEAR(m.elapsed_s, 0.05, 0.002);
  EXPECT_FALSE(m.processes.front().finished);
}

TEST(SystemTest, EmptySystemRunsToDeadline) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  const SystemMetrics m = system.Run(10 * kUsPerMs);
  EXPECT_NEAR(m.elapsed_s, 0.01, 1e-6);
}

TEST(SystemTest, DaemonSteppedEveryQuantum) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  system.AddProcess(Work(10), std::make_unique<NullSource>());
  int calls = 0;
  system.RegisterDaemon([&calls](SimTimeUs, SimTimeUs) {
    ++calls;
    return 0.0;
  });
  for (int i = 0; i < 7; ++i) system.Step();
  EXPECT_EQ(calls, 7);
}

TEST(SystemTest, DaemonInterferenceReachesProcesses) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  Process& proc = system.AddProcess(Work(10), std::make_unique<NullSource>());
  system.RegisterDaemon([](SimTimeUs, SimTimeUs) { return 100.0; });
  for (int i = 0; i < 10; ++i) system.Step();
  EXPECT_NEAR(proc.Metrics(system.Now()).interference_s, 0.001, 1e-6);
}

TEST(SystemTest, InterferenceSplitAcrossActiveProcesses) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  Process& a = system.AddProcess(Work(10), std::make_unique<NullSource>());
  Process& b = system.AddProcess(Work(10), std::make_unique<NullSource>());
  system.RegisterDaemon([](SimTimeUs, SimTimeUs) { return 100.0; });
  for (int i = 0; i < 10; ++i) system.Step();
  EXPECT_NEAR(a.Metrics(system.Now()).interference_s, 0.0005, 1e-6);
  EXPECT_NEAR(b.Metrics(system.Now()).interference_s, 0.0005, 1e-6);
}

TEST(SystemTest, MultipleProcessesAllFinish) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  system.AddProcess(Work(0.02), std::make_unique<NullSource>());
  system.AddProcess(Work(0.05), std::make_unique<NullSource>());
  system.AddProcess(Work(0.01), std::make_unique<NullSource>());
  const SystemMetrics m = system.Run(kUsPerSec);
  for (const ProcessMetrics& pm : m.processes) EXPECT_TRUE(pm.finished);
  EXPECT_EQ(m.processes.size(), 3u);
}

TEST(SystemTest, PidsAreSequential) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  Process& a = system.AddProcess(Work(1), std::make_unique<NullSource>());
  Process& b = system.AddProcess(Work(1), std::make_unique<NullSource>());
  EXPECT_EQ(a.pid(), 1);
  EXPECT_EQ(b.pid(), 2);
}

}  // namespace
}  // namespace daos::sim
