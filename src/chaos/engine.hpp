// The chaos campaign engine: generate -> run -> check -> shrink.
//
// Campaign index `i` under a master seed is a pure function (campaign.hpp),
// so a sweep fans out through the work-stealing ParallelRunner and stays
// bit-identical at any DAOS_JOBS — accounting happens in submission order
// after the parallel phase. On an oracle violation the engine delta-debugs
// the campaign down to a minimal failing schedule:
//
//   phase 1  greedy entry drop — probe every single-entry removal in
//            parallel, apply the lowest-indexed one that still fails, repeat
//   phase 2  halve probabilities (integer per-mille, so the text form stays
//            exact) while the failure persists
//   phase 3  narrow arm/disarm windows by step-aligned halves, front first
//
// Each phase picks the first (lowest-index) improvement, so the minimized
// campaign is deterministic regardless of probe scheduling. The result is a
// one-line repro (campaign.hpp ReproLine) surfaced through last_repro(),
// StatusText(), dbgfs /chaos/last_repro, and the daos_chaos CLI.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/scenario.hpp"

namespace daos::chaos {

struct ChaosConfig {
  std::string scenario = "workload";
  std::uint64_t master_seed = 20220627;
  std::size_t min_entries = 1;
  std::size_t max_entries = 5;
  /// Delta-debug violations down to a minimal failing schedule?
  bool shrink = true;
  /// Probe/run parallelism; 0 resolves through DAOS_JOBS.
  unsigned jobs = 0;
};

/// One campaign's outcome. When the run violated an oracle, `repro` holds
/// the one-line reproduction for the *minimal* schedule (== the original
/// when shrinking is off or could not reduce it).
struct CampaignRun {
  std::uint64_t index = 0;
  Campaign campaign;
  ScenarioResult result;
  bool minimized = false;
  Campaign minimal;              // == campaign unless minimized
  ScenarioResult minimal_result;  // valid only when minimized
  std::string repro;             // "" when all oracles passed
};

struct OracleTally {
  std::uint64_t pass = 0;
  std::uint64_t fail = 0;
};

/// Not thread-safe: run one engine per thread (the parallelism lives
/// *inside* RunGenerated/Shrink, which confine workers to disjoint slots).
class ChaosEngine {
 public:
  explicit ChaosEngine(ChaosConfig config = {});

  const ChaosConfig& config() const noexcept { return config_; }
  /// The generator settings the config resolves to (the horizon is the
  /// scenario's).
  GeneratorConfig generator_config() const;

  Campaign GenerateAt(std::uint64_t index) const;

  /// Runs a campaign with no accounting — the probe primitive the shrinker
  /// and the determinism tests use.
  ScenarioResult Probe(const Campaign& campaign) const;

  /// Runs + accounts one campaign (tallies, shrink on violation, repro).
  CampaignRun RunCampaign(const Campaign& campaign, std::uint64_t index = 0);

  /// Runs generated campaigns [first, first+n) — scenario runs fan out in
  /// parallel, accounting and shrinking stay in submission order.
  std::vector<CampaignRun> RunGenerated(std::uint64_t first, std::size_t n);

  /// RunGenerated from the engine's cursor, advancing it (the dbgfs
  /// "run <n>" writer).
  std::vector<CampaignRun> RunNext(std::size_t n);

  /// Delta-debugs `failing` to a minimal schedule that still violates an
  /// oracle. Returns the input unchanged when it does not actually fail.
  /// Deterministic: same campaign -> same minimum at any DAOS_JOBS.
  Campaign Shrink(const Campaign& failing);

  std::uint64_t campaigns() const noexcept { return campaigns_; }
  std::uint64_t violations() const noexcept { return violations_; }
  std::uint64_t faults_fired() const noexcept { return faults_fired_; }
  std::uint64_t shrink_evals() const noexcept { return shrink_evals_; }
  const std::map<std::string, OracleTally>& oracle_tallies() const noexcept {
    return oracle_tallies_;
  }
  /// Repro line of the most recent violation ("" if none yet).
  const std::string& last_repro() const noexcept { return last_repro_; }

  /// The dbgfs "/chaos/status" payload: config echo, run/violation/eval
  /// counters, per-oracle pass/fail tallies, and the last repro line.
  std::string StatusText() const;

 private:
  CampaignRun Execute(const Campaign& campaign, std::uint64_t index) const;
  void Finalize(CampaignRun& run);

  ChaosConfig config_;
  std::uint64_t cursor_ = 0;
  std::uint64_t campaigns_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t faults_fired_ = 0;
  std::uint64_t shrink_evals_ = 0;
  std::map<std::string, OracleTally> oracle_tallies_;
  std::string last_repro_;
};

}  // namespace daos::chaos
