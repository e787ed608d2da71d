#include "governor/quota.hpp"

#include <algorithm>

#include "sim/machine.hpp"

namespace daos::governor {
namespace {

constexpr std::uint64_t kThpBlock = 2 * MiB;

std::uint64_t CeilDiv(std::uint64_t a, std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

}  // namespace

double ActionCostUs(const sim::CostModel& costs, damon::DamosAction action,
                    std::uint64_t bytes) noexcept {
  const auto pages = static_cast<double>(CeilDiv(bytes, kPageSize));
  const auto blocks = static_cast<double>(CeilDiv(bytes, kThpBlock));
  switch (action) {
    case damon::DamosAction::kPageout:
      return pages * costs.damos_pageout_us_per_page;
    case damon::DamosAction::kWillneed:
      return pages * costs.damos_willneed_us_per_page;
    case damon::DamosAction::kCold:
      return pages * costs.damos_cold_us_per_page;
    case damon::DamosAction::kHugepage:
      return blocks * costs.damos_hugepage_us_per_block;
    case damon::DamosAction::kNohugepage:
      return blocks * costs.damos_nohugepage_us_per_block;
    case damon::DamosAction::kStat:
      return 0.0;
    case damon::DamosAction::kMigrateHot:
      return pages * costs.damos_migrate_hot_us_per_page;
    case damon::DamosAction::kMigrateCold:
      return pages * costs.damos_migrate_cold_us_per_page;
  }
  return 0.0;
}

void QuotaState::RollWindow(const QuotaSpec& quota, damon::DamosAction action,
                            const sim::CostModel& costs,
                            SimTimeUs now) noexcept {
  if (now >= window_start + quota.reset_interval || now < window_start) {
    // A stale window (or a clock that restarted, e.g. scheme moved to a
    // fresh context) opens a new one aligned at `now`.
    window_start = now;
    charged_sz = 0;
    charged_us = 0.0;
  }

  std::uint64_t budget = kMaxU64;
  if (quota.sz_bytes > 0) budget = quota.sz_bytes;
  if (quota.time_us > 0) {
    // Convert the time budget into bytes through the modelled per-byte
    // cost of this scheme's action. A free action (stat) is unconstrained
    // by time.
    const double per_page = ActionCostUs(costs, action, kPageSize);
    if (per_page > 0.0) {
      const double pages = static_cast<double>(quota.time_us) / per_page;
      const double bytes = pages * static_cast<double>(kPageSize);
      if (bytes < static_cast<double>(budget))
        budget = static_cast<std::uint64_t>(bytes);
    }
  }
  esz = budget;
}

void QuotaState::Charge(std::uint64_t bytes, damon::DamosAction action,
                        const sim::CostModel& costs) noexcept {
  charged_sz += bytes;
  total_charged_sz += bytes;
  const double cost = ActionCostUs(costs, action, bytes);
  charged_us += cost;
  total_charged_us += cost;
}

}  // namespace daos::governor
