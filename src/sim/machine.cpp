#include "sim/machine.hpp"

#include <algorithm>
#include <cstdio>

#include "fault/fault.hpp"
#include "sim/address_space.hpp"
#include "sim/reclaim.hpp"
#include "sim/thp.hpp"

namespace daos::sim {
namespace {

// kswapd watermarks as fractions of total DRAM.
constexpr double kHighWatermark = 0.92;
constexpr double kLowWatermark = 0.88;
// Linux khugepaged defaults: scan 4096 pages every 10 s => 8 blocks / 10 s.
constexpr SimTimeUs kKhugepagedPeriod = 10 * kUsPerSec;
constexpr std::uint64_t kKhugepagedBlockBudget = 8;
// Collapse-failure backoff cap: period stretched at most 64x (~10 min).
constexpr std::uint64_t kKhugepagedMaxBackoff = 64;
// Tier balancer scan bound per call: like kswapd it does incremental work.
constexpr std::uint64_t kTierScanCap = 1u << 16;

}  // namespace

MachineSpec MachineSpec::GuestOf() const {
  return MachineSpec{name + "-guest", vcpus / 2, cpu_ghz, dram_bytes / 4};
}

MachineSpec MachineSpec::I3Metal() {
  return MachineSpec{"i3.metal", 36, 3.0, 128 * GiB};
}

MachineSpec MachineSpec::M5dMetal() {
  return MachineSpec{"m5d.metal", 48, 3.1, 96 * GiB};
}

MachineSpec MachineSpec::Z1dMetal() {
  return MachineSpec{"z1d.metal", 24, 4.0, 96 * GiB};
}

std::vector<MachineSpec> MachineSpec::AllBareMetal() {
  return {I3Metal(), M5dMetal(), Z1dMetal()};
}

Machine::Machine(const MachineSpec& spec, const SwapConfig& swap, ThpMode thp)
    : spec_(spec),
      swap_(swap),
      thp_mode_(thp),
      reclaimer_(std::make_unique<Reclaimer>(this)) {}

Machine::~Machine() = default;

bool Machine::UnderPressure() const noexcept {
  if (tiers_.tiered()) {
    // Tiered: kswapd guards the bottom (elastic) tier — upper tiers spill
    // into it by first-fit allocation and balancer/scheme demotion, and
    // only its overflow must leave memory for the swap device.
    const std::uint64_t cap = tiers_.tiers.back().capacity_bytes;
    return static_cast<double>(tier_used_pages_.back() * kPageSize) >
           kHighWatermark * static_cast<double>(cap);
  }
  return static_cast<double>(dram_used_bytes()) >
         kHighWatermark * static_cast<double>(spec_.dram_bytes);
}

std::uint32_t Machine::FreeMemRatePermille() const noexcept {
  if (tiers_.tiered()) {
    // Watermarks protect the scarce resource: free rate of the fast tier.
    const std::uint64_t capacity = tiers_.tiers[0].capacity_bytes;
    if (capacity == 0) return 0;
    const std::uint64_t used = FastTierUsedBytes();
    if (used >= capacity) return 0;
    return static_cast<std::uint32_t>((capacity - used) * 1000 / capacity);
  }
  const std::uint64_t capacity = spec_.dram_bytes;
  if (capacity == 0) return 0;
  const std::uint64_t used = dram_used_bytes();
  if (used >= capacity) return 0;
  return static_cast<std::uint32_t>((capacity - used) * 1000 / capacity);
}

bool Machine::SetTierGeometry(const TierGeometry& geometry,
                              std::string* error) {
  if (used_frames_ != 0 || swap_.used_slots() != 0) {
    if (error != nullptr) {
      *error = "tier geometry can only change while no frame is in use";
    }
    return false;
  }
  if (!geometry.tiers.empty() &&
      geometry.tiers[0].kind != TierKind::kDram) {
    if (error != nullptr) *error = "first tier must be dram";
    return false;
  }
  tiers_ = geometry;
  tier_used_pages_.assign(tiers_.size(), 0);
  tier_alloc_skips_.assign(tiers_.size(), 0);
  // VMAs mapped while the machine was untiered have no touch times yet.
  if (tiers_.tiered()) {
    for (AddressSpace* space : spaces_) {
      for (Vma& vma : space->vmas()) vma.TrackTouchTimes();
    }
  }
  // Fold the slowest configured migration bandwidth into the per-page
  // migration cost, starting from the base CostModel value each time so
  // re-configuration stays idempotent.
  const CostModel base;
  double extra_us = 0.0;
  for (std::size_t t = 1; t < tiers_.size(); ++t) {
    const std::uint64_t bw = tiers_.tiers[t].migrate_bw_bytes_per_s;
    if (bw == 0) continue;
    extra_us = std::max(
        extra_us, static_cast<double>(kPageSize) * 1e6 / static_cast<double>(bw));
  }
  costs_.damos_migrate_hot_us_per_page =
      base.damos_migrate_hot_us_per_page + extra_us;
  costs_.damos_migrate_cold_us_per_page =
      base.damos_migrate_cold_us_per_page + extra_us;
  return true;
}

std::uint16_t Machine::AllocTierFrom(std::uint16_t from) noexcept {
  if (!tiers_.tiered()) return 0;
  const std::uint16_t last = static_cast<std::uint16_t>(tiers_.size() - 1);
  for (std::uint16_t t = from; t < last; ++t) {
    if (tier_used_pages_[t] * kPageSize < tiers_.tiers[t].capacity_bytes) {
      ++tier_used_pages_[t];
      return t;
    }
    // A skipped-because-full tier is demand for its space: this is what
    // wakes the demotion cascade on it (kswapd's failed-allocation wakeup).
    ++tier_alloc_skips_[t];
  }
  // The bottom tier is elastic (file/zram backends grow); overflow there is
  // what drives kswapd's tiered pressure check.
  ++tier_used_pages_[last];
  return last;
}

std::uint16_t Machine::PickDemotionTier(std::uint16_t from) const noexcept {
  const std::uint16_t last = static_cast<std::uint16_t>(tiers_.size() - 1);
  for (std::uint16_t t = static_cast<std::uint16_t>(from + 1); t < last; ++t) {
    if (TierHasRoom(t)) return t;
    ++tier_alloc_skips_[t];  // same wakeup as a failed allocation
  }
  return last;
}

void Machine::UnchargeTier(std::uint16_t tier) noexcept {
  if (!tiers_.tiered()) return;
  if (tier < tier_used_pages_.size() && tier_used_pages_[tier] > 0) {
    --tier_used_pages_[tier];
  }
}

void Machine::MoveTierPage(std::uint16_t from, std::uint16_t to) noexcept {
  if (tier_used_pages_[from] > 0) --tier_used_pages_[from];
  ++tier_used_pages_[to];
}

bool Machine::TierHasRoom(std::uint16_t tier) const noexcept {
  return tier_used_pages_[tier] * kPageSize < tiers_.tiers[tier].capacity_bytes;
}

void Machine::RegisterSpace(AddressSpace* space) { spaces_.push_back(space); }

void Machine::UnregisterSpace(AddressSpace* space) {
  spaces_.erase(std::remove(spaces_.begin(), spaces_.end(), space),
                spaces_.end());
}

void Machine::RunReclaimIfNeeded(SimTimeUs now) {
  if (!UnderPressure()) return;
  // Tiered kswapd: only the bottom tier's overflow is pushed out to the
  // swap device; upper-tier pages leave via demotion, not eviction.
  const bool tiered = tiers_.tiered();
  const std::uint64_t cap =
      tiered ? tiers_.tiers.back().capacity_bytes : spec_.dram_bytes;
  const std::uint64_t used =
      tiered ? tier_used_pages_.back() * kPageSize : dram_used_bytes();
  const auto low =
      static_cast<std::uint64_t>(kLowWatermark * static_cast<double>(cap));
  if (used <= low) return;
  const int victim_tier = tiered ? static_cast<int>(tiers_.size()) - 1 : -1;
  const std::uint64_t got =
      ReclaimPass((used - low) / kPageSize + 1, victim_tier, now);
  if (got == 0) ++counters_.overcommit_events;
}

std::uint64_t Machine::ReclaimPass(std::uint64_t target_pages,
                                   int victim_tier, SimTimeUs now) {
  // Bounded scan per call: reclaim does incremental work, not a full sweep.
  const std::uint64_t budget =
      std::min<std::uint64_t>(target_pages * 8, 1u << 18);
  const std::uint64_t got =
      reclaimer_->Reclaim(target_pages, budget, victim_tier, now);
  ++counters_.reclaim_scans;
  counters_.reclaimed_pages += got;
  return got;
}

void Machine::RunTierBalancerIfNeeded(SimTimeUs now) {
  if (!tiers_.tiered() || spaces_.empty()) return;
  const auto last = static_cast<std::uint16_t>(tiers_.size() - 1);
  // Kernel-style demotion cascade: every capped tier over its high
  // watermark sheds idle pages to the next tier down; only the elastic
  // bottom tier reclaims to swap (RunReclaimIfNeeded). Tier 0 is the
  // exception — evacuating the fast tier is placement policy, so it only
  // happens under kLruDemote (or through MIGRATE_COLD schemes).
  for (std::uint16_t t = 0; t < last; ++t) {
    if (t == 0 && tier_policy_ != TierPolicy::kLruDemote) continue;
    if (t != 0) {
      // Middle tiers cascade only on demand — somebody tried to place a
      // page here and found it full since the last pass. A full-but-quiet
      // tier keeps its pages: demoting them would be pure churn.
      if (tier_alloc_skips_[t] == 0) continue;
      tier_alloc_skips_[t] = 0;
    }
    const std::uint64_t cap = tiers_.tiers[t].capacity_bytes;
    const std::uint64_t used =
        t == 0 ? FastTierUsedBytes() : tier_used_pages_[t] * kPageSize;
    if (static_cast<double>(used) <=
        kHighWatermark * static_cast<double>(cap)) {
      continue;
    }
    const auto low =
        static_cast<std::uint64_t>(kLowWatermark * static_cast<double>(cap));
    if (used <= low) continue;
    std::uint64_t need = (used - low) / kPageSize + 1;
    std::uint64_t budget = std::min<std::uint64_t>(need * 8, kTierScanCap);
    // Round-robin over address spaces, each keeping its own page cursor, so
    // one large process cannot starve the others' fast-tier share.
    for (std::size_t i = 0; i < spaces_.size() && need > 0 && budget > 0;
         ++i) {
      AddressSpace* space =
          spaces_[(tier_space_cursor_ + i) % spaces_.size()];
      const std::uint64_t demoted =
          space->TierDemoteScan(t, &budget, need, now);
      need -= std::min(need, demoted);
    }
    tier_space_cursor_ = (tier_space_cursor_ + 1) % spaces_.size();
  }
}

std::string Machine::TierStatusText() const {
  std::string out;
  char buf[160];
  if (!tiers_.tiered()) {
    std::snprintf(buf, sizeof buf, "untiered: dram %llu / %llu bytes\n",
                  static_cast<unsigned long long>(dram_used_bytes()),
                  static_cast<unsigned long long>(spec_.dram_bytes));
    return buf;
  }
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    const TierSpec& spec = tiers_.tiers[t];
    std::snprintf(buf, sizeof buf,
                  "tier %zu: %s used %llu / %llu bytes lat=%g bw=%llu\n", t,
                  std::string(TierKindName(spec.kind)).c_str(),
                  static_cast<unsigned long long>(tier_used_pages_[t] *
                                                  kPageSize),
                  static_cast<unsigned long long>(spec.capacity_bytes),
                  spec.access_extra_us,
                  static_cast<unsigned long long>(spec.migrate_bw_bytes_per_s));
    out += buf;
  }
  std::snprintf(
      buf, sizeof buf,
      "policy: %s\npromoted_pages: %llu\ndemoted_pages: %llu\n"
      "migrate_fails: %llu\npromote_blocked: %llu\n",
      tier_policy_ == TierPolicy::kLruDemote ? "lru" : "none",
      static_cast<unsigned long long>(counters_.tier_promoted_pages),
      static_cast<unsigned long long>(counters_.tier_demoted_pages),
      static_cast<unsigned long long>(counters_.tier_migrate_fails),
      static_cast<unsigned long long>(counters_.tier_promote_blocked));
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "touches: %llu\nslow_touches: %llu\nhot_mismatch_permille: %llu\n",
      static_cast<unsigned long long>(counters_.tier_touches),
      static_cast<unsigned long long>(counters_.tier_slow_touches),
      static_cast<unsigned long long>(
          counters_.tier_touches == 0
              ? 0
              : counters_.tier_slow_touches * 1000 / counters_.tier_touches));
  out += buf;
  return out;
}

void Machine::RunKhugepaged(SimTimeUs now) {
  if (thp_mode_ != ThpMode::kAlways) return;
  if (now < next_khugepaged_) return;
  const std::uint64_t errors_before = counters_.thp_collapse_errors;
  const std::uint64_t collapsed =
      RunKhugepagedScan(*this, kKhugepagedBlockBudget, now);
  counters_.khugepaged_collapses += collapsed;
  // A scan that only produced collapse errors stretches the next period
  // (khugepaged's alloc-sleep backoff analogue); any successful collapse
  // re-arms the default rate.
  if (collapsed == 0 && counters_.thp_collapse_errors > errors_before) {
    if (khugepaged_backoff_ < kKhugepagedMaxBackoff) {
      khugepaged_backoff_ *= 2;
      ++counters_.khugepaged_backoffs;
    }
  } else if (collapsed > 0) {
    khugepaged_backoff_ = 1;
  }
  next_khugepaged_ = now + kKhugepagedPeriod * khugepaged_backoff_;
}

std::uint64_t Machine::DirectReclaim(std::uint64_t target_pages, SimTimeUs now) {
  return ReclaimPass(target_pages, /*victim_tier=*/-1, now);
}

void Machine::SetFaultPlane(fault::FaultPlane* plane) {
  if (plane == nullptr) {
    faults_ = MachineFaultPoints{};
    return;
  }
  faults_.swap_write_error = &plane->Point(fault::kSwapWriteError);
  faults_.swap_slot_exhausted = &plane->Point(fault::kSwapSlotExhausted);
  faults_.alloc_frame_fail = &plane->Point(fault::kAllocFrameFail);
  faults_.thp_collapse_fail = &plane->Point(fault::kThpCollapseFail);
  faults_.tier_migrate_fail = &plane->Point(fault::kTierMigrateFail);
}

}  // namespace daos::sim
