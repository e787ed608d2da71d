// Chaos block golden: a fixed-seed block of generated campaigns per
// scenario, their end-state signatures folded into one FNV-1a digest per
// scenario. The `lifecycle` and `fleet` scenarios crash and restart
// kdamonds from their checkpoints and roll canary waves back to their
// pre-wave restore points, so any drift in what a restore point carries
// shows up here as a changed digest, not just as a passing oracle.
//
// The scenarios build their own fault planes from the campaign text, so
// the digests hold with DAOS_FAULTS set too. A deliberate change to what a
// scenario computes re-records the constants below (the failure message
// prints the new value).
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "chaos/campaign.hpp"
#include "chaos/scenario.hpp"
#include "util/hash.hpp"

namespace {

using namespace daos;

// Most generated fleet campaigns promote their rollout. Under this seed
// campaign 2's first start is rejected (its canary commit fails, so the
// wave rolls back without a gate trip) and a second start promotes,
// campaign 4 never starts a rollout, and campaign 6 aborts once every shard
// is quarantined, so the block restores pre-wave state twice.
constexpr std::uint64_t kMasterSeed = 19;
constexpr std::uint64_t kCampaigns = 8;

struct BlockGolden {
  std::string_view scenario;
  std::uint64_t digest;
};

constexpr BlockGolden kGoldens[] = {
    {"workload", 0x27263c372648de3aULL},
    {"tiered", 0x6a7eae851a9c9a3cULL},
    {"lifecycle", 0x2839db8a4f13188fULL},
    {"fleet", 0xf39c076dbca84f9bULL},
};

TEST(ChaosBlockGolden, SignaturesOfAFixedSeedBlockAreUnchanged) {
  for (const BlockGolden& golden : kGoldens) {
    chaos::GeneratorConfig gen;
    gen.master_seed = kMasterSeed;
    gen.scenario = std::string(golden.scenario);
    gen.horizon = chaos::ScenarioHorizon(golden.scenario);
    Fnv1a fold;
    for (std::uint64_t i = 0; i < kCampaigns; ++i) {
      const chaos::Campaign campaign = chaos::GenerateCampaign(gen, i);
      const chaos::ScenarioResult result = chaos::RunScenario(campaign);
      EXPECT_TRUE(result.ok())
          << golden.scenario << " campaign " << i << ": "
          << chaos::ReproLine(campaign);
      fold.Mix(result.signature);
    }
    EXPECT_EQ(fold.value(), golden.digest)
        << golden.scenario << " block digest moved: 0x" << std::hex
        << fold.value();
  }
}

}  // namespace
