#include "chaos/campaign.hpp"

#include <sstream>
#include <string>

#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace daos::chaos {

bool ParseCampaign(std::string_view text, Campaign* out, std::string* error) {
  Campaign parsed = *out;  // keep caller defaults for seed/scenario
  parsed.entries.clear();

  LineCursor lines(text, "\n;");
  std::string_view raw;
  while (lines.Next(&raw)) {
    const std::string_view line = TrimWhitespace(StripComment(raw));
    if (line.empty()) continue;
    const auto fail = [&](const std::string& msg) {
      if (error != nullptr) *error = LineError(lines.line_no(), msg);
      return false;
    };

    const std::vector<std::string_view> tokens = SplitWhitespace(line);
    if (tokens[0] == "seed") {
      const auto seed =
          tokens.size() == 2 ? ParseU64(tokens[1]) : std::nullopt;
      if (!seed) return fail("expected 'seed <u64>'");
      parsed.seed = *seed;
      continue;
    }
    if (tokens[0] == "scenario") {
      if (tokens.size() != 2) return fail("expected 'scenario <name>'");
      parsed.scenario = std::string(tokens[1]);
      continue;
    }
    if (tokens.size() < 2) {
      return fail("expected '<point> <trigger>...' (p=/every=/once=, "
                  "optionally from=<dur> until=<dur>)");
    }
    CampaignEntry entry;
    entry.point = std::string(tokens[0]);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::string_view tok = tokens[i];
      const std::size_t eq = tok.find('=');
      if (eq == std::string_view::npos) {
        return fail("bad trigger '" + std::string(tok) +
                    "' (want p=<prob>, every=<N>, once=<N>, from=<dur>, or "
                    "until=<dur>)");
      }
      const std::string_view key = tok.substr(0, eq);
      const std::string_view value = tok.substr(eq + 1);
      if (key == "from") {
        const auto dur = ParseDuration(value);
        if (!dur.has_value()) {
          return fail("bad window start '" + std::string(value) +
                      "' (want a duration, e.g. 500ms)");
        }
        entry.from = *dur;
      } else if (key == "until") {
        const auto dur = ParseDuration(value);
        if (!dur.has_value() || *dur == 0) {
          return fail("bad window end '" + std::string(value) +
                      "' (want a non-zero duration, e.g. 2s)");
        }
        entry.until = *dur;
      } else {
        // p=/every=/once= (and the unknown-key message) are the fault
        // plane's own trigger grammar.
        std::string msg;
        if (!fault::ParseTrigger(key, value, &entry.spec, &msg))
          return fail(msg);
      }
    }
    if (!entry.spec.armed()) {
      return fail("entry '" + entry.point +
                  "' has no trigger (want p=/every=/once=)");
    }
    if (entry.until != 0 && entry.until <= entry.from) {
      return fail("empty window: until=" + FormatDuration(entry.until) +
                  " <= from=" + FormatDuration(entry.from));
    }
    parsed.entries.push_back(std::move(entry));
  }

  *out = std::move(parsed);
  return true;
}

std::string FormatEntry(const CampaignEntry& entry) {
  std::ostringstream out;
  out << entry.point << ' ';
  fault::FormatSpec(out, entry.spec);
  if (entry.from != 0) out << " from=" << FormatDuration(entry.from);
  if (entry.until != 0) out << " until=" << FormatDuration(entry.until);
  return out.str();
}

std::string FormatCampaign(const Campaign& campaign) {
  std::ostringstream out;
  out << "seed " << campaign.seed << '\n';
  out << "scenario " << campaign.scenario << '\n';
  for (const CampaignEntry& entry : campaign.entries) {
    out << FormatEntry(entry) << '\n';
  }
  return out.str();
}

std::string FaultsText(const Campaign& campaign) {
  std::ostringstream out;
  bool first = true;
  for (const CampaignEntry& entry : campaign.entries) {
    if (!first) out << "; ";
    first = false;
    out << FormatEntry(entry);
  }
  return out.str();
}

std::string ReproLine(const Campaign& campaign) {
  std::ostringstream out;
  out << "DAOS_FAULTS='" << FaultsText(campaign) << "' DAOS_FAULT_SEED="
      << campaign.seed << " daos_chaos repro " << campaign.scenario;
  return out.str();
}

/// Chance that a generated entry gets an arm/disarm window at all.
constexpr double kWindowFrac = 0.5;

Campaign GenerateCampaign(const GeneratorConfig& config, std::uint64_t index) {
  // (master_seed, index) -> campaign, via SplitMix64 so neighbouring
  // indices decorrelate fully.
  SplitMix64 mix(config.master_seed + 0x9e3779b97f4a7c15ULL * (index + 1));
  Campaign campaign;
  campaign.seed = mix.Next();
  campaign.scenario = config.scenario;
  Rng rng(mix.Next());

  const std::size_t lo = config.min_entries == 0 ? 1 : config.min_entries;
  const std::size_t hi = config.max_entries < lo ? lo : config.max_entries;
  const std::size_t count = lo + static_cast<std::size_t>(
                                     rng.NextBounded(hi - lo + 1));

  // Partial Fisher-Yates over the catalog: `count` distinct points.
  std::vector<std::string_view> pool = fault::WellKnownPoints();
  for (std::size_t i = 0; i < count && i < pool.size(); ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.NextBounded(pool.size() - i));
    std::swap(pool[i], pool[j]);
    CampaignEntry entry;
    entry.point = std::string(pool[i]);
    // Trigger draw. Probabilities are whole per-mille so the text form
    // ("p=0.027") round-trips the exact double and halving stays exact.
    switch (rng.NextBounded(3)) {
      case 0:
        entry.spec.probability =
            static_cast<double>(1 + rng.NextBounded(500)) / 1000.0;
        break;
      case 1:
        entry.spec.every_nth = 1 + rng.NextBounded(64);
        break;
      default:
        entry.spec.once_at = 1 + rng.NextBounded(200);
        break;
    }
    // A quarter of the entries get a second, correlated trigger.
    if (rng.NextBool(0.25) && entry.spec.probability == 0.0) {
      entry.spec.probability =
          static_cast<double>(1 + rng.NextBounded(100)) / 1000.0;
    }
    if (config.horizon >= 2 * kWindowStep && rng.NextBool(kWindowFrac)) {
      const std::uint64_t steps = config.horizon / kWindowStep;
      const std::uint64_t start = rng.NextBounded(steps);
      const std::uint64_t len = 1 + rng.NextBounded(steps - start);
      entry.from = start * kWindowStep;
      if (start + len < steps) {
        entry.until = (start + len) * kWindowStep;
      }  // else: window runs to the end — leave until=0
    }
    campaign.entries.push_back(std::move(entry));
  }
  return campaign;
}

}  // namespace daos::chaos
