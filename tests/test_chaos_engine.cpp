// Chaos campaign engine tests: grammar round-trips, generator coverage,
// run determinism (incl. DAOS_JOBS independence), oracle soundness on
// clean runs, the synthetic known-bad path, and shrinker minimality +
// determinism. Labeled "chaos" in CTest; the TSan CI leg runs the label at
// DAOS_JOBS=4.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "chaos/engine.hpp"
#include "dbgfs/views.hpp"
#include "fault/fault.hpp"

namespace {

using namespace daos;
using chaos::Campaign;
using chaos::CampaignEntry;
using chaos::ChaosConfig;
using chaos::ChaosEngine;

Campaign ParseOrDie(std::string_view text) {
  Campaign campaign;
  std::string error;
  EXPECT_TRUE(chaos::ParseCampaign(text, &campaign, &error)) << error;
  return campaign;
}

// A campaign that must violate: the synthetic probe point fires on its
// second slice check, buried under noise entries the shrinker must drop.
Campaign KnownBadCampaign() {
  Campaign campaign = ParseOrDie(
      "seed 4242\n"
      "scenario workload\n"
      "chaos.synthetic once=2\n"
      "swap.write_error p=0.2\n"
      "daemon.overrun every=7\n"
      "tier.migrate_fail once=9\n");
  return campaign;
}

TEST(CampaignGrammar, ParsesDirectivesEntriesAndWindows) {
  const Campaign c = ParseOrDie(
      "# comment\n"
      "seed 99\n"
      "scenario tiered\n"
      "swap.write_error p=0.25 from=500ms until=2s; daemon.crash once=120\n");
  EXPECT_EQ(c.seed, 99u);
  EXPECT_EQ(c.scenario, "tiered");
  ASSERT_EQ(c.entries.size(), 2u);
  EXPECT_EQ(c.entries[0].point, "swap.write_error");
  EXPECT_DOUBLE_EQ(c.entries[0].spec.probability, 0.25);
  EXPECT_EQ(c.entries[0].from, 500 * kUsPerMs);
  EXPECT_EQ(c.entries[0].until, 2 * kUsPerSec);
  EXPECT_TRUE(c.entries[0].windowed());
  EXPECT_EQ(c.entries[1].spec.once_at, 120u);
  EXPECT_FALSE(c.entries[1].windowed());
}

TEST(CampaignGrammar, WindowActivation) {
  CampaignEntry e;
  e.from = 500 * kUsPerMs;
  e.until = 2 * kUsPerSec;
  EXPECT_FALSE(e.ActiveAt(0));
  EXPECT_TRUE(e.ActiveAt(500 * kUsPerMs));
  EXPECT_TRUE(e.ActiveAt(2 * kUsPerSec - 1));
  EXPECT_FALSE(e.ActiveAt(2 * kUsPerSec));
  e.until = 0;  // runs to end of scenario
  EXPECT_TRUE(e.ActiveAt(10 * kUsPerSec));
}

TEST(CampaignGrammar, FormatRoundTripsExactly) {
  const chaos::GeneratorConfig gen{
      .master_seed = 7, .scenario = "workload", .min_entries = 2,
      .max_entries = 5, .horizon = 4 * kUsPerSec};
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Campaign original = chaos::GenerateCampaign(gen, i);
    const std::string text = chaos::FormatCampaign(original);
    const Campaign reparsed = ParseOrDie(text);
    EXPECT_EQ(chaos::FormatCampaign(reparsed), text) << text;
    EXPECT_EQ(reparsed.seed, original.seed);
    ASSERT_EQ(reparsed.entries.size(), original.entries.size());
    for (std::size_t k = 0; k < original.entries.size(); ++k) {
      EXPECT_EQ(reparsed.entries[k].point, original.entries[k].point);
      EXPECT_DOUBLE_EQ(reparsed.entries[k].spec.probability,
                       original.entries[k].spec.probability);
      EXPECT_EQ(reparsed.entries[k].from, original.entries[k].from);
      EXPECT_EQ(reparsed.entries[k].until, original.entries[k].until);
    }
  }
}

TEST(CampaignGrammar, WindowlessEntriesAreValidFaultPlaneConfig) {
  // The repro contract: a windowless campaign's DAOS_FAULTS value must be
  // accepted verbatim by the plane's own parser.
  const chaos::GeneratorConfig gen{
      .master_seed = 11, .scenario = "workload", .min_entries = 1,
      .max_entries = 5, .horizon = 0 /* no windows */};
  for (std::uint64_t i = 0; i < 32; ++i) {
    const Campaign c = chaos::GenerateCampaign(gen, i);
    fault::FaultPlane plane(c.seed);
    std::string error;
    EXPECT_TRUE(plane.Configure(chaos::FaultsText(c), &error))
        << chaos::FaultsText(c) << ": " << error;
  }
}

TEST(CampaignGrammar, ReproLineEmbedsSeedScenarioAndEntries) {
  const Campaign c = KnownBadCampaign();
  const std::string line = chaos::ReproLine(c);
  EXPECT_NE(line.find("DAOS_FAULTS='chaos.synthetic once=2; "), std::string::npos)
      << line;
  EXPECT_NE(line.find("DAOS_FAULT_SEED=4242"), std::string::npos) << line;
  EXPECT_NE(line.find("daos_chaos repro workload"), std::string::npos) << line;
  // The DAOS_FAULTS payload re-parses to the same campaign.
  const std::size_t open = line.find('\'');
  const std::size_t close = line.find('\'', open + 1);
  ASSERT_NE(close, std::string::npos);
  Campaign back;
  back.seed = c.seed;
  back.scenario = c.scenario;
  std::string error;
  ASSERT_TRUE(chaos::ParseCampaign(
      std::string_view(line).substr(open + 1, close - open - 1), &back,
      &error))
      << error;
  EXPECT_EQ(chaos::FormatCampaign(back), chaos::FormatCampaign(c));
}

TEST(CampaignGenerator, IsAPureFunctionOfSeedAndIndex) {
  const chaos::GeneratorConfig gen{.master_seed = 3, .scenario = "fleet",
                                   .horizon = 6 * kUsPerSec};
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(chaos::FormatCampaign(chaos::GenerateCampaign(gen, i)),
              chaos::FormatCampaign(chaos::GenerateCampaign(gen, i)));
  }
  EXPECT_NE(chaos::FormatCampaign(chaos::GenerateCampaign(gen, 0)),
            chaos::FormatCampaign(chaos::GenerateCampaign(gen, 1)));
}

TEST(CampaignGenerator, CoversEveryFaultPointAndMultiPointCampaigns) {
  const chaos::GeneratorConfig gen{
      .master_seed = 20220627, .scenario = "workload", .min_entries = 1,
      .max_entries = 5, .horizon = 4 * kUsPerSec};
  std::set<std::string> seen;
  std::size_t at_least_three = 0;
  for (std::uint64_t i = 0; i < 128; ++i) {
    const Campaign c = chaos::GenerateCampaign(gen, i);
    EXPECT_GE(c.entries.size(), 1u);
    EXPECT_LE(c.entries.size(), 5u);
    std::set<std::string> points;
    for (const CampaignEntry& e : c.entries) {
      EXPECT_TRUE(e.spec.armed());
      seen.insert(e.point);
      EXPECT_TRUE(points.insert(e.point).second)
          << "duplicate point " << e.point << " in campaign " << i;
      // The synthetic probe is never drawn — it is the hand-injected
      // known-bad mechanism, not part of the random catalog.
      EXPECT_NE(e.point, chaos::kSyntheticPoint);
    }
    if (c.entries.size() >= 3) ++at_least_three;
  }
  EXPECT_EQ(seen.size(), fault::WellKnownPoints().size())
      << "128 campaigns must cover the whole catalog";
  EXPECT_GE(at_least_three, 16u);
}

TEST(ChaosEngine, CleanSweepPassesAllOracles) {
  ChaosConfig config;
  config.scenario = "workload";
  config.shrink = false;
  ChaosEngine engine(config);
  const auto runs = engine.RunGenerated(0, 6);
  ASSERT_EQ(runs.size(), 6u);
  for (const auto& run : runs) {
    EXPECT_TRUE(run.result.ok())
        << "campaign " << run.index << ": " << run.result.Violations()[0]
        << "\nrepro: " << chaos::ReproLine(run.campaign);
  }
  EXPECT_EQ(engine.campaigns(), 6u);
  EXPECT_EQ(engine.violations(), 0u);
  EXPECT_TRUE(engine.last_repro().empty());
}

TEST(ChaosEngine, ProbeIsDeterministic) {
  ChaosEngine engine(ChaosConfig{});
  const Campaign c = engine.GenerateAt(2);
  const chaos::ScenarioResult a = engine.Probe(c);
  const chaos::ScenarioResult b = engine.Probe(c);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.faults_fired, b.faults_fired);
  ASSERT_EQ(a.checks.size(), b.checks.size());
  for (std::size_t i = 0; i < a.checks.size(); ++i) {
    EXPECT_EQ(a.checks[i].name, b.checks[i].name);
    EXPECT_EQ(a.checks[i].pass, b.checks[i].pass);
  }
}

TEST(ChaosEngine, SweepIsJobsIndependent) {
  // Same campaigns through 1 worker vs 4: bit-identical signatures and
  // identical accounting, in submission order.
  auto sweep = [](unsigned jobs) {
    ChaosConfig config;
    config.jobs = jobs;
    config.shrink = false;
    ChaosEngine engine(config);
    return engine.RunGenerated(0, 8);
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.signature, parallel[i].result.signature);
    EXPECT_EQ(serial[i].result.faults_fired, parallel[i].result.faults_fired);
    EXPECT_EQ(chaos::FormatCampaign(serial[i].campaign),
              chaos::FormatCampaign(parallel[i].campaign));
  }
}

TEST(ChaosEngine, SyntheticViolationIsCaughtAndShrunkToOneEntry) {
  ChaosEngine engine(ChaosConfig{});
  const chaos::CampaignRun run = engine.RunCampaign(KnownBadCampaign());
  ASSERT_FALSE(run.result.ok());
  EXPECT_EQ(engine.violations(), 1u);
  // The three noise entries drop; only the synthetic trigger remains.
  EXPECT_TRUE(run.minimized);
  ASSERT_EQ(run.minimal.entries.size(), 1u);
  EXPECT_EQ(run.minimal.entries[0].point, chaos::kSyntheticPoint);
  EXPECT_FALSE(run.minimal_result.ok());
  EXPECT_EQ(run.repro, chaos::ReproLine(run.minimal));
  EXPECT_EQ(engine.last_repro(), run.repro);
  // The minimized repro replays to a violation with a stable signature.
  const chaos::ScenarioResult replay = engine.Probe(run.minimal);
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(replay.signature, run.minimal_result.signature);
}

TEST(ChaosEngine, ShrinkHalvesProbabilitiesAndNarrowsWindows) {
  // Synthetic p=1.0 fires on the first check no matter what, so shrinking
  // must walk the probability down to per-mille 1 and the window to a
  // single step — and the result must still fail.
  Campaign c = ParseOrDie(
      "seed 7\nscenario workload\n"
      "chaos.synthetic p=1 from=250ms until=4s\n");
  ChaosEngine engine(ChaosConfig{});
  const Campaign minimal = engine.Shrink(c);
  ASSERT_EQ(minimal.entries.size(), 1u);
  EXPECT_GT(minimal.entries[0].spec.probability, 0.0);
  EXPECT_LT(minimal.entries[0].spec.probability, 1.0);
  if (minimal.entries[0].until != 0) {
    EXPECT_LT(minimal.entries[0].until - minimal.entries[0].from,
              c.entries[0].until - c.entries[0].from);
  }
  EXPECT_FALSE(engine.Probe(minimal).ok());
}

TEST(ChaosEngine, ShrinkIsDeterministicAcrossJobs) {
  auto minimize = [](unsigned jobs) {
    ChaosConfig config;
    config.jobs = jobs;
    ChaosEngine engine(config);
    return chaos::ReproLine(engine.Shrink(KnownBadCampaign()));
  };
  const std::string serial = minimize(1);
  EXPECT_EQ(serial, minimize(4));
  EXPECT_EQ(serial, minimize(4)) << "rerun must be bit-identical";
}

TEST(ChaosEngine, ShrinkReturnsPassingCampaignUnchanged) {
  ChaosEngine engine(ChaosConfig{});
  const Campaign c = ParseOrDie("seed 5\nscenario workload\n"
                                "swap.write_error once=1000000\n");
  EXPECT_EQ(chaos::FormatCampaign(engine.Shrink(c)),
            chaos::FormatCampaign(c));
}

TEST(ChaosEngine, StatusTextReportsTalliesAndRepro) {
  ChaosEngine engine(ChaosConfig{});
  engine.RunCampaign(KnownBadCampaign());
  const std::string status = engine.StatusText();
  EXPECT_NE(status.find("campaigns 1"), std::string::npos) << status;
  EXPECT_NE(status.find("violations 1"), std::string::npos) << status;
  EXPECT_NE(status.find("oracle chaos.synthetic pass=0 fail=1"),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("last_repro DAOS_FAULTS='"), std::string::npos)
      << status;
}

TEST(ChaosEngine, UnknownScenarioFailsItsOwnOracle) {
  Campaign c;
  c.scenario = "no-such-scenario";
  const chaos::ScenarioResult result = chaos::RunScenario(c);
  ASSERT_EQ(result.checks.size(), 1u);
  EXPECT_EQ(result.checks[0].name, "scenario.known");
  EXPECT_FALSE(result.ok());
}

// Each shard plane arms only the points whose own window opens or closes:
// a windowless once=3 entry fires once per shard for the whole run, however
// often another entry's window opens and closes (fault.hpp Arm rewinds a
// point's schedule, so a spurious re-arm would make it fire again).
TEST(ChaosEngine, FleetWindowsLeaveOtherPointsArmed) {
  const Campaign campaign = ParseOrDie(
      "seed 7\n"
      "scenario fleet\n"
      "fleet.telemetry_loss once=3\n"
      "trial.hang p=1 from=1s until=2s\n");
  const chaos::ScenarioResult result = chaos::RunScenario(campaign);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.faults_fired, 4u);  // one per shard plane
}

TEST(ChaosFsTest, StatusAndLastReproFiles) {
  dbgfs::PseudoFs fs;
  ChaosEngine engine(ChaosConfig{});
  const dbgfs::Mount chaos_fs = dbgfs::MountChaos(&fs, &engine);

  std::string error;
  auto content = fs.Read("/chaos/last_repro");
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, "none\n");

  content = fs.Read("/chaos/status");
  ASSERT_TRUE(content.has_value());
  EXPECT_NE(content->find("campaigns 0"), std::string::npos);

  EXPECT_FALSE(fs.Write("/chaos/status", "run", &error));
  EXPECT_FALSE(fs.Write("/chaos/status", "run 0", &error));
  EXPECT_FALSE(fs.Write("/chaos/last_repro", "x", &error))
      << "last_repro is read-only";
  ASSERT_TRUE(fs.Write("/chaos/status", "run 2", &error)) << error;
  content = fs.Read("/chaos/status");
  ASSERT_TRUE(content.has_value());
  EXPECT_NE(content->find("campaigns 2"), std::string::npos) << *content;
}

}  // namespace
