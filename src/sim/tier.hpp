// Memory-tier substrate description: an ordered list of tiers (fast DRAM
// first, then progressively slower CXL-like / zram / file-swap backends),
// each with a capacity, an extra per-touch access latency, and a migration
// bandwidth.
//
// This mirrors upstream DAMON's post-paper tiering work (DAMOS
// MIGRATE_HOT/MIGRATE_COLD over NUMA/CXL demotion targets): the monitor's
// access stats drive *placement* across tiers, not just reclaim. The
// geometry text grammar is the single format shared by the dbgfs
// `/tier/geometry` control file, `daos_ctl`, and bench configuration:
//
//   # one tier per line, fastest first; first tier must be dram
//   dram 96M
//   cxl  1G  lat=0.6 bw=8G
//   file 4G  lat=2.0 bw=1G
//
// `lat=` is the extra stall in microseconds a 4 KiB touch pays versus DRAM;
// `bw=` is the migration bandwidth (bytes/second) into/out of the tier,
// folded into the CostModel's per-page migration cost so governor quotas
// charge it. Parsing is all-or-nothing with line-accurate errors, matching
// the damos scheme parser's discipline.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace daos::sim {

enum class TierKind : std::uint8_t {
  kDram,  // fast tier: no extra latency
  kCxl,   // slow coherent memory (CXL.mem-like)
  kZram,  // compressed RAM backend
  kFile,  // file-backed (NVMe swap-like)
};

std::string_view TierKindName(TierKind kind);
std::optional<TierKind> ParseTierKind(std::string_view text);

/// Hard cap on tier count — bounds the parser, the per-tier cursor state
/// in AddressSpace, and the fixed-width status formatting.
inline constexpr std::size_t kMaxTiers = 8;

struct TierSpec {
  TierKind kind = TierKind::kDram;
  std::uint64_t capacity_bytes = 0;
  double access_extra_us = 0.0;          // per-4KiB-touch stall vs DRAM
  std::uint64_t migrate_bw_bytes_per_s = 0;  // 0 = unconstrained

  std::string ToText() const;
};

/// An ordered tier list, fastest first. The default (empty or single-tier)
/// geometry means "untiered": the machine behaves bit-identically to the
/// pre-tier engine.
struct TierGeometry {
  std::vector<TierSpec> tiers;

  bool tiered() const noexcept { return tiers.size() > 1; }
  std::size_t size() const noexcept { return tiers.size(); }
  std::string ToText() const;
};

/// Parses the geometry grammar above. Returns false and leaves `*out`
/// untouched on any error; `*error` (when non-null) gets a line-accurate
/// message ("tier line 2: ..."). Blank lines and `#` comments are skipped.
bool ParseTierGeometry(std::string_view text, TierGeometry* out,
                       std::string* error);

}  // namespace daos::sim
