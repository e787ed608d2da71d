// DAMOS governor policy: the per-scheme control-plane configuration.
//
// The paper's schemes engine (§3.2) applies every matching region
// unconditionally; upstream DAMON later grew quotas, under-quota
// prioritization, and watermark gating to keep schemes from becoming the
// interference they were meant to remove. This header is the reproduction's
// model of those three knobs. A policy with no clause set is *disarmed*:
// the engine takes a single branch and behaves bit-identically to the
// pre-governor code.
//
// Text grammar (optional trailing clauses after the 7 base scheme fields):
//
//   quota_sz=<size>          max bytes a scheme may apply per reset window
//   quota_ms=<ms>            max modelled action time per reset window
//   quota_reset_ms=<ms>      window length (default 1000 ms)
//   prio_weights=<s>,<f>,<a> under-quota priority weights for region
//                            size / access frequency / age (kernel-style)
//   wmarks=<metric>,<high>,<mid>,<low>
//                            watermark gate; metric is "free_mem_rate",
//                            thresholds are permille of the metric range
//   wmark_interval_ms=<ms>   how often the metric is checked (default 100)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace daos::governor {

/// Per-window apply budgets. Zero means unlimited; the quota is armed when
/// either budget is set.
struct QuotaSpec {
  std::uint64_t sz_bytes = 0;           // quota_sz=
  SimTimeUs time_us = 0;                // quota_ms= (stored in µs)
  SimTimeUs reset_interval = kUsPerSec; // quota_reset_ms=

  bool armed() const noexcept { return sz_bytes > 0 || time_us > 0; }
  bool operator==(const QuotaSpec&) const = default;
};

/// Under-quota prioritization weights over region size / access frequency /
/// age (the kernel's damos_quota weights). All-zero = disarmed
/// (address-order spend, exactly the ungoverned behaviour).
struct PrioWeights {
  std::uint32_t sz = 0;
  std::uint32_t freq = 0;
  std::uint32_t age = 0;

  bool armed() const noexcept { return sz + freq + age > 0; }
  std::uint32_t total() const noexcept { return sz + freq + age; }
  bool operator==(const PrioWeights&) const = default;
};

enum class WatermarkMetric : std::uint8_t {
  kNone,         // gate disarmed: scheme is always active
  kFreeMemRate,  // free DRAM fraction of the machine, in permille
};

std::string_view WatermarkMetricName(WatermarkMetric metric);
bool ParseWatermarkMetric(std::string_view token, WatermarkMetric* out);

/// Watermark gate: the guarded metric is sampled every `interval`; the
/// scheme deactivates while the metric is above `high` (system healthy —
/// no work needed) or below `low` (emergency — leave the field to the
/// kernel's own reclaim), and re-activates once it falls back to `mid` or
/// below. Thresholds are permille (0..1000) of the metric range.
struct WatermarkSpec {
  WatermarkMetric metric = WatermarkMetric::kNone;
  SimTimeUs interval = 100 * kUsPerMs;  // wmark_interval_ms=
  std::uint32_t high = 0;
  std::uint32_t mid = 0;
  std::uint32_t low = 0;

  bool armed() const noexcept { return metric != WatermarkMetric::kNone; }
  bool operator==(const WatermarkSpec&) const = default;
};

/// The full governor configuration of one scheme. Value-semantic and
/// embedded in damos::Scheme, next to the scheme's mutable runtime
/// (QuotaState charges, WatermarkGate).
struct GovernorPolicy {
  QuotaSpec quota;
  PrioWeights prio;
  WatermarkSpec wmarks;

  bool armed() const noexcept {
    return quota.armed() || prio.armed() || wmarks.armed();
  }
  bool operator==(const GovernorPolicy&) const = default;

  /// Serializes the armed clauses back to the text grammar, space-joined
  /// with a leading space ("" when fully disarmed) so Scheme::ToText() can
  /// append it verbatim. quota_sz is written in raw bytes: the clause must
  /// round-trip exactly (budgets are contracts, not descriptions).
  std::string ToText() const;
};

/// Parses one "key=value" clause into `*policy`. Returns false and sets
/// `*error` (when non-null) on an unknown key or malformed value; `*policy`
/// may be partially updated on failure — callers discard it on error, as
/// scheme parsing is all-or-nothing.
bool ParsePolicyClause(std::string_view clause, GovernorPolicy* policy,
                       std::string* error);

/// Cross-field validation after all clauses are applied (watermark
/// ordering, weight sanity). Returns false and sets `*error` on violation.
bool ValidatePolicy(const GovernorPolicy& policy, std::string* error);

}  // namespace daos::governor
