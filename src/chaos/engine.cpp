#include "chaos/engine.hpp"

#include <sstream>

#include "analysis/runner.hpp"
#include "util/units.hpp"

namespace daos::chaos {

namespace {

std::uint64_t Permille(double probability) {
  return static_cast<std::uint64_t>(probability * 1000.0 + 0.5);
}

}  // namespace

ChaosEngine::ChaosEngine(ChaosConfig config) : config_(std::move(config)) {}

GeneratorConfig ChaosEngine::generator_config() const {
  return {.master_seed = config_.master_seed,
          .scenario = config_.scenario,
          .min_entries = config_.min_entries,
          .max_entries = config_.max_entries,
          .horizon = ScenarioHorizon(config_.scenario)};
}

Campaign ChaosEngine::GenerateAt(std::uint64_t index) const {
  return GenerateCampaign(generator_config(), index);
}

ScenarioResult ChaosEngine::Probe(const Campaign& campaign) const {
  return RunScenario(campaign);
}

CampaignRun ChaosEngine::Execute(const Campaign& campaign,
                                 std::uint64_t index) const {
  CampaignRun run;
  run.index = index;
  run.campaign = campaign;
  run.result = RunScenario(campaign);
  return run;
}

void ChaosEngine::Finalize(CampaignRun& run) {
  ++campaigns_;
  faults_fired_ += run.result.faults_fired;
  for (const OracleCheck& check : run.result.checks) {
    OracleTally& tally = oracle_tallies_[check.name];
    (check.pass ? tally.pass : tally.fail)++;
  }
  if (run.result.ok()) return;

  ++violations_;
  run.minimal = run.campaign;
  if (config_.shrink) {
    run.minimal = Shrink(run.campaign);
    if (run.minimal.entries.size() != run.campaign.entries.size() ||
        FaultsText(run.minimal) != FaultsText(run.campaign)) {
      run.minimized = true;
      run.minimal_result = RunScenario(run.minimal);
      ++shrink_evals_;
    }
  }
  run.repro = ReproLine(run.minimal);
  last_repro_ = run.repro;
}

CampaignRun ChaosEngine::RunCampaign(const Campaign& campaign,
                                     std::uint64_t index) {
  CampaignRun run = Execute(campaign, index);
  Finalize(run);
  return run;
}

std::vector<CampaignRun> ChaosEngine::RunGenerated(std::uint64_t first,
                                                   std::size_t n) {
  std::vector<CampaignRun> runs(n);
  analysis::ParallelRunner runner(config_.jobs);
  runner.ForEach(n, [&](std::size_t i) {
    runs[i] = Execute(GenerateAt(first + i), first + i);
  });
  // Accounting (and any shrinking) in submission order: counters, tallies
  // and last_repro_ are DAOS_JOBS-independent.
  for (CampaignRun& run : runs) Finalize(run);
  return runs;
}

std::vector<CampaignRun> ChaosEngine::RunNext(std::size_t n) {
  const std::uint64_t first = cursor_;
  cursor_ += n;
  return RunGenerated(first, n);
}

Campaign ChaosEngine::Shrink(const Campaign& failing) {
  ++shrink_evals_;
  if (Probe(failing).ok()) return failing;  // nothing to shrink

  Campaign campaign = failing;
  analysis::ParallelRunner runner(config_.jobs);

  // Phase 1: greedy entry drop. Probe every single-entry removal in
  // parallel; keep the lowest-indexed one that still fails; repeat until no
  // entry can be dropped. First-index selection keeps the result identical
  // at any DAOS_JOBS.
  bool progress = true;
  while (progress && campaign.entries.size() > 1) {
    progress = false;
    const std::size_t n = campaign.entries.size();
    std::vector<char> still_fails(n, 0);
    runner.ForEach(n, [&](std::size_t i) {
      Campaign candidate = campaign;
      candidate.entries.erase(candidate.entries.begin() +
                              static_cast<std::ptrdiff_t>(i));
      still_fails[i] = Probe(candidate).ok() ? 0 : 1;
    });
    shrink_evals_ += n;
    for (std::size_t i = 0; i < n; ++i) {
      if (still_fails[i] != 0) {
        campaign.entries.erase(campaign.entries.begin() +
                               static_cast<std::ptrdiff_t>(i));
        progress = true;
        break;
      }
    }
  }

  // Phase 2: halve probabilities. Integer per-mille keeps the halved value
  // exactly representable in the text grammar.
  for (std::size_t i = 0; i < campaign.entries.size(); ++i) {
    while (campaign.entries[i].spec.probability > 0.0) {
      const std::uint64_t permille =
          Permille(campaign.entries[i].spec.probability);
      if (permille <= 1) break;
      Campaign candidate = campaign;
      candidate.entries[i].spec.probability =
          static_cast<double>(permille / 2) / 1000.0;
      ++shrink_evals_;
      if (Probe(candidate).ok()) break;
      campaign = std::move(candidate);
    }
  }

  // Phase 3: narrow windows, binary-descending from half the span down to
  // one step per edge (front first). Entries running to the end of the
  // horizon (until=0) keep doing so; only their start can move.
  const SimTimeUs horizon = ScenarioHorizon(campaign.scenario);
  const auto align = [](SimTimeUs v) { return v / kWindowStep * kWindowStep; };
  // Tries campaign with entry i's edge moved inward by descending deltas;
  // applies the largest still-failing move. Returns true when one applied.
  const auto narrow = [&](std::size_t i, bool front) {
    const CampaignEntry& e = campaign.entries[i];
    // A windowless entry stays windowless: grafting a from= onto it would
    // grow the repro text, not shrink it.
    if (!e.windowed()) return false;
    if (!front && e.until == 0) return false;
    const SimTimeUs end = e.until == 0 ? horizon : e.until;
    if (end <= e.from + kWindowStep) return false;
    for (SimTimeUs delta = align((end - e.from) / 2); delta >= kWindowStep;
         delta = align(delta / 2)) {
      Campaign candidate = campaign;
      if (front) {
        candidate.entries[i].from = e.from + delta;
      } else {
        candidate.entries[i].until = e.until - delta;
      }
      ++shrink_evals_;
      if (!Probe(candidate).ok()) {
        campaign = std::move(candidate);
        return true;
      }
    }
    return false;
  };
  for (std::size_t i = 0; i < campaign.entries.size(); ++i) {
    while (narrow(i, /*front=*/true)) {
    }
    while (narrow(i, /*front=*/false)) {
    }
  }

  return campaign;
}

std::string ChaosEngine::StatusText() const {
  std::ostringstream out;
  out << "scenario " << config_.scenario << '\n'
      << "master_seed " << config_.master_seed << '\n'
      << "campaigns " << campaigns_ << '\n'
      << "violations " << violations_ << '\n'
      << "faults_fired " << faults_fired_ << '\n'
      << "shrink_evals " << shrink_evals_ << '\n';
  for (const auto& [name, tally] : oracle_tallies_) {
    out << "oracle " << name << " pass=" << tally.pass
        << " fail=" << tally.fail << '\n';
  }
  if (!last_repro_.empty()) out << "last_repro " << last_repro_ << '\n';
  return out.str();
}

}  // namespace daos::chaos
