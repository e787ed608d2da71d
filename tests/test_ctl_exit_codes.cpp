// daos_ctl exit-code audit: every verb must be scriptable `set -e` style —
// 0 on success, 1 on rejected/unreadable input, 2 on usage errors. One
// table-driven test spawns the real binary (DAOS_CTL_BIN, injected by
// CMake) across all verbs; `record` is skipped only because its 900
// simulated seconds dominate the suite's runtime, not because it differs.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

std::string TmpPath(const std::string& name) {
  return "/tmp/daos_ctl_exit_" + std::to_string(::getpid()) + "_" + name;
}

void Spill(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

int RunCtl(const std::string& args) {
  // The harness may run with DAOS_FAULTS armed (CI stress legs); the
  // spawned binaries must see a clean plane or success rows turn flaky,
  // so the env is scrubbed inside the child's command line.
  const std::string cmd = "env -u DAOS_FAULTS -u DAOS_FAULT_SEED " +
                          std::string(DAOS_CTL_BIN) + " " + args +
                          " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(CtlExitCodes, EveryVerbIsScriptable) {
  const std::string checkpoint = TmpPath("ckpt");
  const std::string bundle_ok = TmpPath("bundle_ok");
  const std::string bundle_bad = TmpPath("bundle_bad");
  const std::string csv = TmpPath("trace.csv");
  const std::string csv_bad = TmpPath("bad.csv");
  const std::string dtr = TmpPath("trace.dtr");
  const std::string garbage = TmpPath("garbage");
  const std::string spec_ok = TmpPath("spec_ok");
  const std::string spec_rejected = TmpPath("spec_rejected");
  Spill(bundle_ok,
        "attrs 5000 100000 1000000 10 1000\n"
        "scheme min max min min 2s max pageout\n");
  Spill(bundle_bad, "scheme not a scheme\n");
  Spill(csv,
        "time_us,op,addr,size\n"
        "0,map,0x10000000,1048576\n"
        "0,r,0x10000000,4096\n"
        "5000,w,0x10001000,64\n"
        "20000,unmap,0x10000000,0\n");
  Spill(csv_bad, "time_us,op,addr,size\n0,levitate,0x10,4\n");
  Spill(garbage, "not a checkpoint, not a trace\n");
  Spill(spec_ok,
        "canary 0.25\nramp 0.5 1.0\ngate_epochs 1\n"
        "scheme min max min min 1s max pageout\n");
  Spill(spec_rejected, "canary 2.0\nscheme min max min min 1s max pageout\n");

  struct Row {
    std::string args;
    int expected;
  };
  const std::vector<Row> rows = {
      // Success paths. Order matters: checkpoint/ingest feed restore/replay.
      // No arguments runs the dbgfs demo, which writes and reloads a
      // monitoring record file.
      {"", 0},
      {"checkpoint " + checkpoint, 0},
      {"restore " + checkpoint, 0},
      {"commit " + bundle_ok, 0},
      {"ingest " + csv + " " + dtr, 0},
      {"replay " + dtr, 0},
      {"fleet-status", 0},
      {"fleet-rollout " + spec_ok, 0},
      {"tier-status", 0},
      // Rejected input -> 1, with nothing half-applied.
      {"commit " + bundle_bad, 1},
      {"restore " + garbage, 1},
      {"ingest " + csv_bad + " " + dtr + ".bad", 1},
      {"replay " + garbage, 1},
      {"fleet-rollout " + spec_rejected, 1},
      // Unreadable/unwritable files -> 1.
      {"commit /nonexistent/bundle", 1},
      {"checkpoint /nonexistent/dir/ckpt", 1},
      {"restore /nonexistent/ckpt", 1},
      {"ingest /nonexistent/trace.csv " + dtr + ".x", 1},
      {"replay /nonexistent/trace.dtr", 1},
      {"fleet-rollout /nonexistent/spec", 1},
      // Usage errors -> 2.
      {"frobnicate", 2},
      {"commit", 2},
      {"checkpoint", 2},
      {"fleet-rollout", 2},
      {"fleet-status extra-arg", 2},
      {"tier-status extra-arg", 2},
      {"replay a b", 2},
  };
  for (const Row& row : rows)
    EXPECT_EQ(RunCtl(row.args), row.expected) << "daos_ctl " << row.args;

  for (const std::string& path :
       {checkpoint, bundle_ok, bundle_bad, csv, csv_bad, dtr, garbage,
        spec_ok, spec_rejected})
    std::remove(path.c_str());
}

TEST(CtlExitCodes, UnhealthyRolloutExitsNonZero) {
  // A rollout that cannot gate (every health sample lost) must abort and
  // exit 1 — the fleet verb's failure signal covers aborts, not just
  // rejected specs.
  const std::string spec = TmpPath("spec_starved");
  Spill(spec,
        "canary 0.25\nramp 1.0\ngate_epochs 1\ntimeout_epochs 3\n"
        "scheme min max min min 1s max pageout\n");
  const std::string cmd =
      "env -u DAOS_FAULT_SEED DAOS_FAULTS='fleet.telemetry_loss p=1.0' " +
      std::string(DAOS_CTL_BIN) + " fleet-rollout " + spec +
      " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  std::remove(spec.c_str());
}

}  // namespace
