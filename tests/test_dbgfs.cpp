#include "dbgfs/damon_dbgfs.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "dbgfs/procfs.hpp"
#include "sim/system.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

namespace daos::dbgfs {
namespace {

workload::WorkloadProfile SmallProfile() {
  workload::WorkloadProfile p;
  p.name = "test/dbgfs";
  p.suite = "test";
  p.data_bytes = 64 * MiB;
  p.runtime_s = 30;
  p.noise = 0;
  p.groups = {workload::GroupSpec{0.25, 0.0, 1.0, 0.3},
              workload::GroupSpec{0.75, -1.0, 1.0, 0.2}};
  return p;
}

class DbgfsTest : public ::testing::Test {
 protected:
  DbgfsTest()
      : system_(sim::MachineSpec::I3Metal().GuestOf(), sim::SwapConfig::Zram(),
                sim::ThpMode::kNever, 5 * kUsPerMs),
        proc_(system_.AddProcess(workload::ToProcessParams(SmallProfile()),
                                 workload::MakeSource(SmallProfile(), 3))),
        dbgfs_(&system_, &fs_) {}

  sim::System system_;
  sim::Process& proc_;
  PseudoFs fs_;
  DamonDbgfs dbgfs_;
};

TEST(PseudoFsTest, RegisterReadWrite) {
  PseudoFs fs;
  std::string store = "hello\n";
  fs.RegisterFile(
      "/x", [&store] { return store; },
      [&store](std::string_view c, std::string*) {
        store = std::string(c);
        return true;
      });
  EXPECT_TRUE(fs.Exists("/x"));
  EXPECT_EQ(fs.Read("/x").value(), "hello\n");
  EXPECT_TRUE(fs.Write("/x", "bye\n"));
  EXPECT_EQ(fs.Read("/x").value(), "bye\n");
}

TEST(PseudoFsTest, MissingAndReadOnly) {
  PseudoFs fs;
  fs.RegisterFile("/ro", [] { return std::string("x"); }, nullptr);
  std::string error;
  EXPECT_FALSE(fs.Read("/nope").has_value());
  EXPECT_FALSE(fs.Write("/nope", "x", &error));
  EXPECT_NE(error.find("no such file"), std::string::npos);
  EXPECT_FALSE(fs.Write("/ro", "x", &error));
  EXPECT_NE(error.find("read-only"), std::string::npos);
}

TEST(PseudoFsTest, ListByPrefix) {
  PseudoFs fs;
  fs.RegisterFile("/a/1", [] { return std::string(); }, nullptr);
  fs.RegisterFile("/a/2", [] { return std::string(); }, nullptr);
  fs.RegisterFile("/b/1", [] { return std::string(); }, nullptr);
  EXPECT_EQ(fs.List("/a").size(), 2u);
  EXPECT_EQ(fs.List().size(), 3u);
  fs.RemoveFile("/a/1");
  EXPECT_EQ(fs.List("/a").size(), 1u);
}

TEST(MountTest, DestructionRemovesExactlyItsFiles) {
  PseudoFs fs;
  fs.RegisterFile("/a/direct", [] { return std::string(); }, nullptr);
  Mount other(&fs, "/b");
  other.File("1", [] { return std::string(); }, nullptr);
  {
    Mount mount(&fs, "/a");
    mount.File("1", [] { return std::string("one"); }, nullptr);
    mount.File("2", nullptr, [](std::string_view, std::string*) {
      return true;
    });
    EXPECT_EQ(fs.Read("/a/1").value(), "one");
    EXPECT_EQ(mount.Read("1").value(), "one");
    EXPECT_TRUE(fs.Exists("/a/2"));
  }
  EXPECT_EQ(fs.List(), (std::vector<std::string>{"/a/direct", "/b/1"}));
}

TEST(MountTest, MovedFromMountRemovesNothing) {
  PseudoFs fs;
  std::optional<Mount> target;
  {
    Mount source(&fs, "/m");
    source.File("f", [] { return std::string("x"); }, nullptr);
    target.emplace(std::move(source));
  }
  EXPECT_TRUE(fs.Exists("/m/f"));
  target.reset();
  EXPECT_FALSE(fs.Exists("/m/f"));
}

TEST_F(DbgfsTest, FilesRegistered) {
  for (const char* f : {"/damon/attrs", "/damon/target_ids", "/damon/schemes",
                        "/damon/monitor_on"}) {
    EXPECT_TRUE(fs_.Exists(f)) << f;
  }
}

TEST_F(DbgfsTest, AttrsRoundTrip) {
  EXPECT_EQ(fs_.Read("/damon/attrs").value(), "5000 100000 1000000 10 1000\n");
  EXPECT_TRUE(fs_.Write("/damon/attrs", "10000 200000 2000000 5 500"));
  EXPECT_EQ(fs_.Read("/damon/attrs").value(),
            "10000 200000 2000000 5 500\n");
  EXPECT_EQ(dbgfs_.context().attrs().sampling_interval, 10000u);
}

TEST_F(DbgfsTest, AttrsValidation) {
  std::string error;
  EXPECT_FALSE(fs_.Write("/damon/attrs", "1 2 3", &error));
  EXPECT_FALSE(fs_.Write("/damon/attrs", "0 100 1000 10 100", &error));
  EXPECT_FALSE(fs_.Write("/damon/attrs", "5000 100 1000 10 five", &error));
  // Original attrs untouched after failed writes.
  EXPECT_EQ(dbgfs_.context().attrs().sampling_interval, 5000u);
}

TEST_F(DbgfsTest, TargetIdsResolvePids) {
  EXPECT_TRUE(fs_.Write("/damon/target_ids",
                        std::to_string(proc_.pid())));
  EXPECT_EQ(dbgfs_.context().targets().size(), 1u);
  EXPECT_EQ(fs_.Read("/damon/target_ids").value(),
            std::to_string(proc_.pid()) + "\n");
}

TEST_F(DbgfsTest, TargetIdsRejectUnknownPid) {
  std::string error;
  EXPECT_FALSE(fs_.Write("/damon/target_ids", "999", &error));
  EXPECT_NE(error.find("no such pid"), std::string::npos);
  EXPECT_TRUE(dbgfs_.context().targets().empty());
}

TEST_F(DbgfsTest, PaddrTarget) {
  EXPECT_TRUE(fs_.Write("/damon/target_ids", "paddr"));
  EXPECT_EQ(fs_.Read("/damon/target_ids").value(), "paddr\n");
  EXPECT_EQ(dbgfs_.context().targets().size(), 1u);
  std::string error;
  EXPECT_FALSE(fs_.Write("/damon/target_ids", "paddr 1", &error));
}

TEST_F(DbgfsTest, SchemesInstallAndStats) {
  EXPECT_TRUE(fs_.Write("/damon/schemes", "min max min min 2s max pageout\n"));
  const std::string schemes = fs_.Read("/damon/schemes").value();
  EXPECT_NE(schemes.find("pageout"), std::string::npos);
  EXPECT_NE(schemes.find("tried 0"), std::string::npos);

  std::string error;
  EXPECT_FALSE(fs_.Write("/damon/schemes", "gibberish\n", &error));
  // Previously installed schemes survive a rejected write.
  EXPECT_EQ(dbgfs_.engine().schemes().size(), 1u);
}

TEST_F(DbgfsTest, MonitorOnRequiresTargets) {
  std::string error;
  EXPECT_FALSE(fs_.Write("/damon/monitor_on", "on", &error));
  EXPECT_NE(error.find("no monitoring targets"), std::string::npos);
  EXPECT_TRUE(fs_.Write("/damon/target_ids", std::to_string(proc_.pid())));
  EXPECT_TRUE(fs_.Write("/damon/monitor_on", "on"));
  EXPECT_EQ(fs_.Read("/damon/monitor_on").value(), "on\n");
  EXPECT_TRUE(fs_.Write("/damon/monitor_on", "off"));
  EXPECT_FALSE(fs_.Write("/damon/monitor_on", "maybe", &error));
}

TEST_F(DbgfsTest, EndToEndKernelWorkflow) {
  // The §3.6 workflow: configure via file writes, run, read results back.
  ASSERT_TRUE(fs_.Write("/damon/target_ids", std::to_string(proc_.pid())));
  ASSERT_TRUE(
      fs_.Write("/damon/schemes", "min max min min 2s max pageout\n"));
  ASSERT_TRUE(fs_.Write("/damon/monitor_on", "on"));

  system_.Run(10 * kUsPerSec);

  // The idle 75 % of the heap must have been paged out.
  EXPECT_GT(proc_.space().swapped_pages(), (24 * MiB) / kPageSize);
  const std::string schemes = fs_.Read("/damon/schemes").value();
  EXPECT_EQ(schemes.find("applied 0"), std::string::npos);
}

TEST_F(DbgfsTest, MonitorOffStopsWork) {
  ASSERT_TRUE(fs_.Write("/damon/target_ids", std::to_string(proc_.pid())));
  ASSERT_TRUE(
      fs_.Write("/damon/schemes", "min max min min 1s max pageout\n"));
  // Never switched on: nothing happens.
  system_.Run(5 * kUsPerSec);
  EXPECT_EQ(proc_.space().swapped_pages(), 0u);
  EXPECT_EQ(dbgfs_.context().counters().samples, 0u);
}

TEST_F(DbgfsTest, ProcfsReportsRss) {
  ProcFs procfs(&system_, &fs_);
  system_.Run(kUsPerSec);  // populate
  const std::uint64_t rss = procfs.ReadRssBytes(proc_.pid());
  EXPECT_NEAR(static_cast<double>(rss),
              static_cast<double>(proc_.ReadRssBytes()),
              static_cast<double>(2 * KiB));
  // status file has the Linux-style lines.
  const std::string status =
      fs_.Read("/proc/" + std::to_string(proc_.pid()) + "/status").value();
  EXPECT_NE(status.find("VmRSS:"), std::string::npos);
  EXPECT_NE(status.find("VmSize:"), std::string::npos);
  EXPECT_EQ(procfs.ReadRssBytes(4242), 0u);
}

TEST_F(DbgfsTest, ProcfsDestructionRemovesItsFiles) {
  const std::string dir = "/proc/" + std::to_string(proc_.pid());
  {
    ProcFs procfs(&system_, &fs_);
    EXPECT_TRUE(fs_.Exists(dir + "/status"));
    EXPECT_TRUE(fs_.Exists(dir + "/statm"));
  }
  EXPECT_TRUE(fs_.List("/proc").empty());
  EXPECT_TRUE(fs_.Exists("/damon/attrs"));
}

TEST_F(DbgfsTest, ProcfsStatmPages) {
  ProcFs procfs(&system_, &fs_);
  system_.Run(kUsPerSec);
  const std::string statm =
      fs_.Read("/proc/" + std::to_string(proc_.pid()) + "/statm").value();
  unsigned long long size = 0, resident = 0;
  ASSERT_EQ(std::sscanf(statm.c_str(), "%llu %llu", &size, &resident), 2);
  EXPECT_EQ(resident, proc_.space().resident_pages());
  EXPECT_EQ(size, proc_.space().mapped_bytes() / kPageSize);
}

}  // namespace
}  // namespace daos::dbgfs
