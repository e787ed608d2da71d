// Unit tests for the DAMOS governor library: policy grammar round-trips,
// quota window arithmetic, the modelled action cost table, priority
// scoring, and the watermark activation machine.
#include <gtest/gtest.h>

#include "governor/governor.hpp"
#include "governor/policy.hpp"
#include "governor/priority.hpp"
#include "governor/quota.hpp"
#include "sim/machine.hpp"
#include "util/units.hpp"

namespace daos::governor {
namespace {

GovernorPolicy ParseClauses(std::initializer_list<const char*> clauses) {
  GovernorPolicy policy;
  for (const char* clause : clauses) {
    std::string error;
    EXPECT_TRUE(ParsePolicyClause(clause, &policy, &error))
        << clause << ": " << error;
  }
  return policy;
}

// --- policy grammar -------------------------------------------------------

TEST(GovernorPolicyTest, DisarmedByDefaultAndSerializesEmpty) {
  const GovernorPolicy policy;
  EXPECT_FALSE(policy.armed());
  EXPECT_EQ(policy.ToText(), "");
}

TEST(GovernorPolicyTest, ClausesParse) {
  const GovernorPolicy policy = ParseClauses(
      {"quota_sz=16M", "quota_ms=5", "quota_reset_ms=2000",
       "prio_weights=1,7,2", "wmarks=free_mem_rate,900,500,100",
       "wmark_interval_ms=250"});
  EXPECT_EQ(policy.quota.sz_bytes, 16 * MiB);
  EXPECT_EQ(policy.quota.time_us, 5 * kUsPerMs);
  EXPECT_EQ(policy.quota.reset_interval, 2 * kUsPerSec);
  EXPECT_EQ(policy.prio.sz, 1u);
  EXPECT_EQ(policy.prio.freq, 7u);
  EXPECT_EQ(policy.prio.age, 2u);
  EXPECT_EQ(policy.wmarks.metric, WatermarkMetric::kFreeMemRate);
  EXPECT_EQ(policy.wmarks.high, 900u);
  EXPECT_EQ(policy.wmarks.mid, 500u);
  EXPECT_EQ(policy.wmarks.low, 100u);
  EXPECT_EQ(policy.wmarks.interval, 250 * kUsPerMs);
  EXPECT_TRUE(policy.armed());
}

TEST(GovernorPolicyTest, ToTextRoundTripsExactly) {
  const GovernorPolicy original = ParseClauses(
      {"quota_sz=3333337", "quota_ms=7", "quota_reset_ms=1500",
       "prio_weights=0,10,3", "wmarks=free_mem_rate,995,700,50"});
  // quota_sz is serialized in raw bytes, so even a non-round size (which
  // FormatSize would describe lossily) survives the trip bit-exactly.
  GovernorPolicy reparsed;
  std::string text = original.ToText();
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text[0], ' ');
  std::size_t at = 1;
  while (at < text.size()) {
    const std::size_t sp = text.find(' ', at);
    const std::string clause = text.substr(
        at, sp == std::string::npos ? std::string::npos : sp - at);
    std::string error;
    ASSERT_TRUE(ParsePolicyClause(clause, &reparsed, &error))
        << clause << ": " << error;
    if (sp == std::string::npos) break;
    at = sp + 1;
  }
  EXPECT_EQ(reparsed, original);
}

TEST(GovernorPolicyTest, ValidationRejectsDisorderedWatermarks) {
  GovernorPolicy policy =
      ParseClauses({"wmarks=free_mem_rate,100,500,900"});
  std::string error;
  EXPECT_FALSE(ValidatePolicy(policy, &error));
  EXPECT_NE(error.find("high >= mid >= low"), std::string::npos);
  policy = ParseClauses({"wmarks=free_mem_rate,900,500,100"});
  EXPECT_TRUE(ValidatePolicy(policy, &error));
}

// --- action cost model ----------------------------------------------------

TEST(GovernorCostTest, PerPageAndPerBlockActions) {
  const sim::CostModel costs;
  EXPECT_DOUBLE_EQ(ActionCostUs(costs, damon::DamosAction::kPageout, 4 * kPageSize),
                   4.0 * costs.damos_pageout_us_per_page);
  EXPECT_DOUBLE_EQ(ActionCostUs(costs, damon::DamosAction::kHugepage, 4 * MiB),
                   2.0 * costs.damos_hugepage_us_per_block);
  // Partial units are charged whole (ceil): half a page is one page.
  EXPECT_DOUBLE_EQ(ActionCostUs(costs, damon::DamosAction::kCold, 1),
                   costs.damos_cold_us_per_page);
  EXPECT_DOUBLE_EQ(ActionCostUs(costs, damon::DamosAction::kStat, GiB), 0.0);
}

// --- quota window arithmetic ----------------------------------------------

TEST(GovernorQuotaTest, SizeBudgetChargesAndRolls) {
  QuotaSpec quota;
  quota.sz_bytes = 8 * MiB;
  quota.reset_interval = kUsPerSec;
  const sim::CostModel costs;
  QuotaState state;

  state.RollWindow(quota, damon::DamosAction::kPageout, costs, 0);
  EXPECT_EQ(state.remaining(), 8 * MiB);
  state.Charge(5 * MiB, damon::DamosAction::kPageout, costs);
  EXPECT_EQ(state.remaining(), 3 * MiB);
  state.Charge(5 * MiB, damon::DamosAction::kPageout, costs);
  EXPECT_EQ(state.remaining(), 0u);

  // Mid-window re-roll keeps the charge (backoff/watermark re-arm must not
  // refresh the budget)...
  state.RollWindow(quota, damon::DamosAction::kPageout, costs,
                   kUsPerSec / 2);
  EXPECT_EQ(state.remaining(), 0u);
  // ...and the window boundary resets the window but not the lifetime sums.
  state.RollWindow(quota, damon::DamosAction::kPageout, costs, kUsPerSec);
  EXPECT_EQ(state.remaining(), 8 * MiB);
  EXPECT_EQ(state.total_charged_sz, 10 * MiB);
}

TEST(GovernorQuotaTest, TimeBudgetConvertsThroughActionCost) {
  QuotaSpec quota;
  quota.time_us = 3000;  // 3 ms
  const sim::CostModel costs;  // pageout: 3 µs per page
  QuotaState state;
  state.RollWindow(quota, damon::DamosAction::kPageout, costs, 0);
  // 3000 µs / 3 µs-per-page = 1000 pages.
  EXPECT_EQ(state.remaining(), 1000 * kPageSize);
  // A stat scheme costs nothing, so a pure time quota cannot bound it.
  state.RollWindow(quota, damon::DamosAction::kStat, costs, kUsPerSec * 10);
  EXPECT_EQ(state.esz, kMaxU64);
}

TEST(GovernorQuotaTest, CombinedBudgetTakesTheMinimum) {
  QuotaSpec quota;
  quota.sz_bytes = 2 * MiB;
  quota.time_us = 3000;  // -> 1000 pages ≈ 3.9 M at 4K pages
  const sim::CostModel costs;
  QuotaState state;
  state.RollWindow(quota, damon::DamosAction::kPageout, costs, 0);
  EXPECT_EQ(state.esz, 2 * MiB);  // size is the tighter bound

  quota.sz_bytes = 16 * MiB;
  state.RollWindow(quota, damon::DamosAction::kPageout, costs, kUsPerSec);
  EXPECT_EQ(state.esz, 1000 * kPageSize);  // now time is
}

// --- prioritization -------------------------------------------------------

TEST(GovernorPriorityTest, ColdFirstFollowsActionShape) {
  EXPECT_TRUE(ColdFirst(damon::DamosAction::kPageout));
  EXPECT_TRUE(ColdFirst(damon::DamosAction::kCold));
  EXPECT_TRUE(ColdFirst(damon::DamosAction::kNohugepage));
  EXPECT_FALSE(ColdFirst(damon::DamosAction::kHugepage));
  EXPECT_FALSE(ColdFirst(damon::DamosAction::kWillneed));
}

TEST(GovernorPriorityTest, FrequencyInvertsForReclaim) {
  ScoreScale scale;
  scale.max_sz = MiB;
  scale.max_nr_accesses = 10;
  scale.max_age = 100;
  PrioWeights freq_only{0, 1, 0};

  RegionFacts hot{MiB, 10, 50};
  RegionFacts cold{MiB, 0, 50};
  // Promote-shaped: the hot region wins.
  EXPECT_GT(ScoreRegion(hot, scale, freq_only, false),
            ScoreRegion(cold, scale, freq_only, false));
  // Reclaim-shaped: the cold region wins.
  EXPECT_LT(ScoreRegion(hot, scale, freq_only, true),
            ScoreRegion(cold, scale, freq_only, true));
}

TEST(GovernorPriorityTest, DisarmedWeightsScoreMax) {
  EXPECT_EQ(ScoreRegion(RegionFacts{1, 1, 1}, ScoreScale{}, PrioWeights{},
                        false),
            kMaxScore);
}

TEST(GovernorPriorityTest, HistogramCutoffAdaptsToBudget) {
  PriorityHistogram h;
  h.Add(90, 4 * MiB);
  h.Add(50, 4 * MiB);
  h.Add(10, 4 * MiB);
  EXPECT_EQ(h.total_bytes(), 12 * MiB);
  // Budget covers everything: no cutoff.
  EXPECT_EQ(h.MinScoreFor(16 * MiB), 0u);
  // Budget covers only the top bucket.
  EXPECT_EQ(h.MinScoreFor(4 * MiB), 90u);
  // Budget covers the top two.
  EXPECT_EQ(h.MinScoreFor(8 * MiB), 50u);
}

// --- watermark machine ----------------------------------------------------

class GovernorWatermarkTest : public ::testing::Test {
 protected:
  GovernorWatermarkTest()
      : machine_(sim::MachineSpec{"wm", 4, 3.0, 1 * GiB},
                 sim::SwapConfig::Zram()) {
    policy_ = [] {
      GovernorPolicy p;
      std::string error;
      ParsePolicyClause("wmarks=free_mem_rate,800,500,100", &p, &error);
      ParsePolicyClause("wmark_interval_ms=100", &p, &error);
      return p;
    }();
  }

  /// Sets DRAM usage so free_mem_rate reads `permille`.
  void SetFree(std::uint32_t permille) {
    machine_.UnchargeFrames(machine_.used_frames());
    const std::uint64_t frames = GiB / kPageSize;
    machine_.ChargeFrames(frames - frames * permille / 1000);
  }

  PassPlan Plan(SimTimeUs now) {
    return PlanPass(policy_, damon::DamosAction::kPageout, now, &machine_,
                    &quota_, &gate_);
  }

  sim::Machine machine_;
  QuotaState quota_;
  WatermarkGate gate_;
  GovernorPolicy policy_;
};

TEST_F(GovernorWatermarkTest, DeactivatesAboveHighReactivatesAtMid) {
  SetFree(600);  // between mid and high: stays active (starts active)
  PassPlan plan = Plan(0);
  EXPECT_FALSE(plan.skip);
  EXPECT_TRUE(plan.wmark_active);

  SetFree(900);  // above high: system healthy, stand down
  plan = Plan(100 * kUsPerMs);
  EXPECT_TRUE(plan.skip);
  EXPECT_TRUE(plan.wmark_transition);
  EXPECT_FALSE(gate_.active);

  // Hysteresis: dipping back under high but above mid is NOT enough.
  SetFree(600);
  plan = Plan(200 * kUsPerMs);
  EXPECT_TRUE(plan.skip);
  EXPECT_FALSE(plan.wmark_transition);

  SetFree(400);  // at/below mid: re-arm
  plan = Plan(300 * kUsPerMs);
  EXPECT_FALSE(plan.skip);
  EXPECT_TRUE(plan.wmark_transition);
  EXPECT_TRUE(gate_.active);
}

TEST_F(GovernorWatermarkTest, DeactivatesBelowLow) {
  SetFree(50);  // emergency: below low, leave reclaim to the kernel
  const PassPlan plan = Plan(0);
  EXPECT_TRUE(plan.skip);
  EXPECT_FALSE(gate_.active);
}

TEST_F(GovernorWatermarkTest, ChecksOnlyAtIntervalBoundaries) {
  SetFree(600);
  Plan(0);  // schedules the next check at +100 ms
  SetFree(900);
  // Before the interval elapses the stale (active) state holds.
  EXPECT_FALSE(Plan(50 * kUsPerMs).skip);
  EXPECT_TRUE(Plan(100 * kUsPerMs).skip);
}

TEST_F(GovernorWatermarkTest, NoMachineFailsOpen) {
  QuotaState quota;
  WatermarkGate gate;
  const PassPlan plan = PlanPass(policy_, damon::DamosAction::kPageout, 0,
                                 nullptr, &quota, &gate);
  EXPECT_FALSE(plan.skip);
}

}  // namespace
}  // namespace daos::governor
