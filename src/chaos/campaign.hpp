// Chaos campaigns: randomized multi-fault schedules over the fault plane.
//
// A *campaign* is a seeded set of fault-injection entries — one per fault
// point, each a trigger spec (the fault.hpp grammar) plus an optional
// arm/disarm window in sim time. The entry grammar is a strict superset of
// the DAOS_FAULTS / "/fault" syntax: a windowless entry line is valid input
// for FaultPlane::Configure verbatim, and the windowed form adds two keys
// the chaos scenario drivers realize by re-arming at slice boundaries:
//
//   swap.write_error p=0.2 every=100 from=500ms until=2s
//   daemon.crash once=120
//   seed 20220627            # campaign seed (drives every plane + draw)
//   scenario lifecycle       # which scenario driver runs it
//
// '\n' or ';' separated, '#' comments, all-or-nothing parsing with
// line-numbered errors — the same contract as every other text surface.
//
// The whole point of the text form is the one-line repro: any oracle
// violation is emitted as
//
//   DAOS_FAULTS='<entries>' DAOS_FAULT_SEED=<seed> daos_chaos repro <scenario>
//
// which rebuilds the exact campaign (the repro verb parses DAOS_FAULTS with
// this parser, a superset of the plane's own) and replays it bit-identically.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "util/types.hpp"

namespace daos::chaos {

/// One campaign entry: arm `point` with `spec` while inside the window.
struct CampaignEntry {
  std::string point;
  fault::FaultSpec spec;
  SimTimeUs from = 0;   // window start (inclusive)
  SimTimeUs until = 0;  // window end (exclusive); 0 = end of run

  bool ActiveAt(SimTimeUs now) const noexcept {
    return now >= from && (until == 0 || now < until);
  }
  bool windowed() const noexcept { return from != 0 || until != 0; }
};

struct Campaign {
  std::uint64_t seed = 0xfa'017'fa'017ULL;
  std::string scenario = "workload";
  std::vector<CampaignEntry> entries;
};

/// Parses campaign text (the grammar above). `seed`/`scenario` directives
/// are optional — bare entry text (a DAOS_FAULTS value) parses too, keeping
/// whatever `out` already holds for seed and scenario. All-or-nothing: on
/// error nothing is written and `error` (when non-null) gets a
/// line-numbered message.
bool ParseCampaign(std::string_view text, Campaign* out, std::string* error);

/// "point triggers [from=.. until=..]" — parseable by ParseCampaign, and by
/// FaultPlane::Configure when the entry is windowless.
std::string FormatEntry(const CampaignEntry& entry);

/// Full round-trippable form: "seed N\nscenario S\n" + one entry per line.
std::string FormatCampaign(const Campaign& campaign);

/// The entries alone, "; "-joined — the DAOS_FAULTS value of the repro
/// line. Windowless campaigns round-trip through FaultPlane::Configure
/// unchanged.
std::string FaultsText(const Campaign& campaign);

/// The one-line replayable repro.
std::string ReproLine(const Campaign& campaign);

/// Window endpoints of generated entries align to this grain (and
/// FormatDuration round-trips whole milliseconds only, so keep it >= 1ms).
inline constexpr SimTimeUs kWindowStep = 250 * kUsPerMs;

/// Seeded campaign generation: campaign `index` under `master_seed` is a
/// pure function of (master_seed, index) — the engine fans indices out
/// through the parallel runner and the draw stays DAOS_JOBS-independent.
struct GeneratorConfig {
  std::uint64_t master_seed = 20220627;
  std::string scenario = "workload";
  std::size_t min_entries = 1;
  std::size_t max_entries = 5;
  /// Run length windows are drawn inside; 0 disables windowed entries.
  SimTimeUs horizon = 0;
};

Campaign GenerateCampaign(const GeneratorConfig& config, std::uint64_t index);

}  // namespace daos::chaos
