#include "governor/policy.hpp"

#include <cstdio>

#include "util/strings.hpp"
#include "util/units.hpp"

namespace daos::governor {
namespace {

// Weight sanity cap: kernel damos weights are small relative mixes; a
// weight this large is a typo (e.g. a size pasted into the clause).
constexpr std::uint32_t kMaxWeight = 1000;
constexpr std::uint32_t kMaxPermille = 1000;

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

/// Milliseconds clause value ("10", never negative, never unit-suffixed —
/// the unit is in the key name).
std::optional<SimTimeUs> ParseMs(std::string_view tok) {
  const auto ms = ParseU64(tok);
  if (!ms || *ms > kMaxU64 / kUsPerMs) return std::nullopt;
  return *ms * kUsPerMs;
}

}  // namespace

std::string_view WatermarkMetricName(WatermarkMetric metric) {
  switch (metric) {
    case WatermarkMetric::kNone:
      return "none";
    case WatermarkMetric::kFreeMemRate:
      return "free_mem_rate";
  }
  return "?";
}

bool ParseWatermarkMetric(std::string_view token, WatermarkMetric* out) {
  const std::string t = ToLower(token);
  if (t == "none") {
    *out = WatermarkMetric::kNone;
    return true;
  }
  if (t == "free_mem_rate") {
    *out = WatermarkMetric::kFreeMemRate;
    return true;
  }
  return false;
}

std::string GovernorPolicy::ToText() const {
  std::string out;
  char buf[96];
  if (quota.armed()) {
    if (quota.sz_bytes > 0) {
      std::snprintf(buf, sizeof buf, " quota_sz=%llu",
                    static_cast<unsigned long long>(quota.sz_bytes));
      out += buf;
    }
    if (quota.time_us > 0) {
      std::snprintf(buf, sizeof buf, " quota_ms=%llu",
                    static_cast<unsigned long long>(quota.time_us / kUsPerMs));
      out += buf;
    }
    std::snprintf(buf, sizeof buf, " quota_reset_ms=%llu",
                  static_cast<unsigned long long>(quota.reset_interval /
                                                  kUsPerMs));
    out += buf;
  }
  if (prio.armed()) {
    std::snprintf(buf, sizeof buf, " prio_weights=%u,%u,%u", prio.sz,
                  prio.freq, prio.age);
    out += buf;
  }
  if (wmarks.armed()) {
    std::snprintf(buf, sizeof buf, " wmarks=%s,%u,%u,%u",
                  std::string(WatermarkMetricName(wmarks.metric)).c_str(),
                  wmarks.high, wmarks.mid, wmarks.low);
    out += buf;
    std::snprintf(buf, sizeof buf, " wmark_interval_ms=%llu",
                  static_cast<unsigned long long>(wmarks.interval / kUsPerMs));
    out += buf;
  }
  return out;
}

bool ParsePolicyClause(std::string_view clause, GovernorPolicy* policy,
                       std::string* error) {
  const std::size_t eq = clause.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return Fail(error, "expected key=value governor clause, got '" +
                           std::string(clause) + "'");
  }
  const std::string key = ToLower(clause.substr(0, eq));
  const std::string_view value = clause.substr(eq + 1);

  if (key == "quota_sz") {
    const auto v = ParseSize(value);
    if (!v || *v == 0)
      return Fail(error, "bad quota_sz '" + std::string(value) +
                             "' (want a positive size)");
    policy->quota.sz_bytes = *v;
    return true;
  }
  if (key == "quota_ms") {
    const auto v = ParseMs(value);
    if (!v || *v == 0)
      return Fail(error, "bad quota_ms '" + std::string(value) +
                             "' (want positive milliseconds)");
    policy->quota.time_us = *v;
    return true;
  }
  if (key == "quota_reset_ms") {
    const auto v = ParseMs(value);
    if (!v || *v == 0)
      return Fail(error, "bad quota_reset_ms '" + std::string(value) +
                             "' (want positive milliseconds)");
    policy->quota.reset_interval = *v;
    return true;
  }
  if (key == "prio_weights") {
    const auto parts = SplitChar(value, ',');
    if (parts.size() != 3)
      return Fail(error, "bad prio_weights '" + std::string(value) +
                             "' (want <size>,<freq>,<age>)");
    std::uint32_t w[3];
    for (int i = 0; i < 3; ++i) {
      const auto v = ParseU64(parts[i]);
      if (!v || *v > kMaxWeight)
        return Fail(error, "bad prio_weights component '" +
                               std::string(parts[i]) + "' (want 0.." +
                               std::to_string(kMaxWeight) + ")");
      w[i] = static_cast<std::uint32_t>(*v);
    }
    policy->prio = PrioWeights{w[0], w[1], w[2]};
    if (!policy->prio.armed())
      return Fail(error, "prio_weights must not be all zero");
    return true;
  }
  if (key == "wmarks") {
    const auto parts = SplitChar(value, ',');
    if (parts.size() != 4)
      return Fail(error, "bad wmarks '" + std::string(value) +
                             "' (want <metric>,<high>,<mid>,<low>)");
    WatermarkSpec spec = policy->wmarks;
    if (!ParseWatermarkMetric(parts[0], &spec.metric))
      return Fail(error,
                  "unknown watermark metric '" + std::string(parts[0]) + "'");
    std::uint32_t t[3];
    for (int i = 0; i < 3; ++i) {
      const auto v = ParseU64(parts[i + 1]);
      if (!v || *v > kMaxPermille)
        return Fail(error, "bad watermark threshold '" +
                               std::string(parts[i + 1]) +
                               "' (want permille 0..1000)");
      t[i] = static_cast<std::uint32_t>(*v);
    }
    spec.high = t[0];
    spec.mid = t[1];
    spec.low = t[2];
    policy->wmarks = spec;
    return true;
  }
  if (key == "wmark_interval_ms") {
    const auto v = ParseMs(value);
    if (!v || *v == 0)
      return Fail(error, "bad wmark_interval_ms '" + std::string(value) +
                             "' (want positive milliseconds)");
    policy->wmarks.interval = *v;
    return true;
  }
  return Fail(error, "unknown governor clause '" + key + "'");
}

bool ValidatePolicy(const GovernorPolicy& policy, std::string* error) {
  if (policy.wmarks.armed()) {
    const WatermarkSpec& w = policy.wmarks;
    if (w.low > w.mid || w.mid > w.high) {
      return Fail(error, "watermarks must satisfy high >= mid >= low (got " +
                             std::to_string(w.high) + "," +
                             std::to_string(w.mid) + "," +
                             std::to_string(w.low) + ")");
    }
  }
  return true;
}

}  // namespace daos::governor
