// The simulated machine: CPU/DRAM spec, frame accounting, swap device, THP
// policy, and the baseline reclaimer hook.
//
// Machine specs mirror Table 2 of the paper (AWS EC2 bare-metal instance
// types); `GuestOf()` derives the QEMU/KVM guest configuration the paper
// actually runs workloads in (half the vCPUs, a quarter of the DRAM).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/swap.hpp"
#include "sim/tier.hpp"
#include "util/types.hpp"

namespace daos::fault {
class FaultPlane;
class FaultPoint;
}  // namespace daos::fault

namespace daos::sim {

class AddressSpace;
class Reclaimer;

/// Hardware description (paper Table 2).
struct MachineSpec {
  std::string name;
  int vcpus = 0;
  double cpu_ghz = 0.0;
  std::uint64_t dram_bytes = 0;

  /// The paper's guest VM: half the CPUs, a quarter of the memory (§4).
  MachineSpec GuestOf() const;

  static MachineSpec I3Metal();   // 3.0 GHz x 36 vCPU, 128 GiB
  static MachineSpec M5dMetal();  // 3.1 GHz x 48 vCPU,  96 GiB
  static MachineSpec Z1dMetal();  // 4.0 GHz x 24 vCPU,  96 GiB
  static std::vector<MachineSpec> AllBareMetal();
};

enum class ThpMode : std::uint8_t {
  kNever,   // baseline configuration: THP off
  kAlways,  // Linux-original aggressive THP ("thp" configuration)
};

/// Fault and hardware cost constants, scaled by CPU speed where appropriate.
struct CostModel {
  double minor_fault_us = 1.2;      // allocate + zero one 4 KiB page
  double huge_fault_extra_us = 45;  // zeroing a whole 2 MiB page (latency spike)
  double monitor_check_us = 0.07;   // one PTE accessed-bit sample (vaddr)
  double monitor_check_paddr_us = 0.09;  // one rmap walk + check (paddr)
  // Workload-side interference per monitor sample: clearing an accessed
  // bit on an active mm costs a TLB shootdown (~1 µs). Scaled by the
  // workload's memory-boundness when charged.
  double monitor_interference_us = 1.0;

  // Modelled DAMOS action costs, charged against schemes' time quotas
  // (quota_ms=). Page-granular actions cost per 4 KiB page; THP actions
  // per 2 MiB block. Rough Linux magnitudes: pageout pays add_to_swap +
  // writeback submission, willneed a swap-readahead setup, cold an LRU
  // list move, collapse a 2 MiB copy, split a page-table rewrite.
  double damos_pageout_us_per_page = 3.0;
  double damos_willneed_us_per_page = 2.0;
  double damos_cold_us_per_page = 0.12;
  double damos_hugepage_us_per_block = 60.0;
  double damos_nohugepage_us_per_block = 25.0;
  // Tier migration: copy one 4 KiB page between tiers plus remap. The base
  // value models the kernel-side move_pages work; SetTierGeometry folds the
  // slowest configured migration bandwidth (bw=) on top, so governor time
  // quotas charge real transfer cost.
  double damos_migrate_hot_us_per_page = 1.5;
  double damos_migrate_cold_us_per_page = 1.5;
};

struct MachineCounters {
  std::uint64_t reclaimed_pages = 0;
  std::uint64_t reclaim_scans = 0;
  std::uint64_t failed_evictions = 0;  // swap full / no device
  std::uint64_t khugepaged_collapses = 0;
  std::uint64_t overcommit_events = 0;
  std::uint64_t swap_write_errors = 0;     // injected swap-out I/O failures
  std::uint64_t alloc_stalls = 0;          // frame allocs that hit direct reclaim
  std::uint64_t thp_collapse_errors = 0;   // injected collapse failures
  std::uint64_t khugepaged_backoffs = 0;   // scan periods stretched after errors
  std::uint64_t touchlog_gc_entries = 0;   // dropped by the System's 1 s GC
  // Tier substrate (all zero on an untiered machine).
  std::uint64_t tier_promoted_pages = 0;   // moved into the fast tier
  std::uint64_t tier_demoted_pages = 0;    // moved to a slower tier
  std::uint64_t tier_migrate_fails = 0;    // injected migration failures
  std::uint64_t tier_promote_blocked = 0;  // fast tier full, promotion refused
  std::uint64_t tier_touches = 0;          // page touches while tiered
  std::uint64_t tier_slow_touches = 0;     // ... of pages outside the fast tier
};

/// Fault points the sim layer consults, resolved once at SetFaultPlane time
/// so hot paths pay a null check while faults are disabled.
struct MachineFaultPoints {
  fault::FaultPoint* swap_write_error = nullptr;
  fault::FaultPoint* swap_slot_exhausted = nullptr;
  fault::FaultPoint* alloc_frame_fail = nullptr;
  fault::FaultPoint* thp_collapse_fail = nullptr;
  fault::FaultPoint* tier_migrate_fail = nullptr;
};

/// How the machine manages multi-tier placement on its own (DAMOS migration
/// schemes run on top of either policy).
enum class TierPolicy : std::uint8_t {
  kNone,       // static: pages stay where first-fit allocation put them
  kLruDemote,  // background balancer demotes idle fast-tier pages downward
};

class Machine {
 public:
  Machine(const MachineSpec& spec, const SwapConfig& swap,
          ThpMode thp = ThpMode::kNever);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineSpec& spec() const noexcept { return spec_; }
  const CostModel& costs() const noexcept { return costs_; }
  SwapDevice& swap() noexcept { return swap_; }
  const SwapDevice& swap() const noexcept { return swap_; }
  ThpMode thp_mode() const noexcept { return thp_mode_; }
  void set_thp_mode(ThpMode m) noexcept { thp_mode_ = m; }

  /// Relative CPU speed vs. the 3.0 GHz i3.metal reference.
  double cpu_speed() const noexcept { return spec_.cpu_ghz / 3.0; }

  // --- frame accounting ------------------------------------------------------
  void ChargeFrames(std::uint64_t pages) noexcept { used_frames_ += pages; }
  void UnchargeFrames(std::uint64_t pages) noexcept {
    used_frames_ -= pages > used_frames_ ? used_frames_ : pages;
  }
  std::uint64_t used_frames() const noexcept { return used_frames_; }
  /// Total DRAM in use: resident frames plus zram's compressed footprint.
  std::uint64_t dram_used_bytes() const noexcept {
    return used_frames_ * kPageSize + swap_.dram_bytes();
  }
  std::uint64_t dram_capacity() const noexcept { return spec_.dram_bytes; }
  bool UnderPressure() const noexcept;
  /// Free DRAM as permille of capacity (0 = exhausted, 1000 = idle) — the
  /// "free_mem_rate" watermark metric of the DAMOS governor, mirroring the
  /// kernel's freerun counters feeding damos_wmark_metric_value(). On a
  /// tiered machine this is the *fast tier's* free rate: watermarks exist to
  /// protect the scarce resource, and that is tier-0 DRAM.
  std::uint32_t FreeMemRatePermille() const noexcept;

  // --- memory tiers -----------------------------------------------------------
  /// Installs a multi-tier geometry. Refused (returns false, `*error` set)
  /// while any frame is in use — placement of already-resident pages would
  /// be ambiguous — or if the geometry's fast tier is not dram-kind first.
  /// Folds the slowest configured migration bandwidth into the CostModel's
  /// per-page migration costs.
  bool SetTierGeometry(const TierGeometry& geometry, std::string* error);
  const TierGeometry& tier_geometry() const noexcept { return tiers_; }
  bool tiered() const noexcept { return tiers_.tiered(); }
  TierPolicy tier_policy() const noexcept { return tier_policy_; }
  void set_tier_policy(TierPolicy p) noexcept { tier_policy_ = p; }
  /// First-fit placement for a newly resident page: the first tier with
  /// free capacity, the (elastic) last tier otherwise. Returns 0 untiered.
  std::uint16_t AllocTier() noexcept { return AllocTierFrom(0); }
  /// Same, but considering only tiers >= `from` (demotion targets).
  std::uint16_t AllocTierFrom(std::uint16_t from) noexcept;
  /// Destination for demoting a page out of `from`: the next lower tier
  /// with free capacity, the elastic bottom tier otherwise. Unlike
  /// AllocTierFrom this does not charge the tier — MoveTierPage does.
  std::uint16_t PickDemotionTier(std::uint16_t from) const noexcept;
  void UnchargeTier(std::uint16_t tier) noexcept;
  void MoveTierPage(std::uint16_t from, std::uint16_t to) noexcept;
  bool TierHasRoom(std::uint16_t tier) const noexcept;
  /// Extra stall a 4 KiB touch pays when the page lives in `tier`.
  double TierExtraUs(std::uint16_t tier) const noexcept {
    return tiers_.tiers[tier].access_extra_us;
  }
  std::uint64_t TierUsedPages(std::uint16_t tier) const noexcept {
    return tier_used_pages_[tier];
  }
  /// Fast-tier DRAM in use: tier-0 frames plus zram's compressed footprint
  /// (compressed pages live in real DRAM, wherever their owner sits).
  std::uint64_t FastTierUsedBytes() const noexcept {
    return tier_used_pages_[0] * kPageSize + swap_.dram_bytes();
  }
  /// Background tier balancer (TierPolicy::kLruDemote): when the fast tier
  /// crosses its high watermark, demotes idle tier-0 pages downward until
  /// it is back under the low watermark (bounded per call).
  void RunTierBalancerIfNeeded(SimTimeUs now);
  /// Human-readable tier table for dbgfs `/tier/status`.
  std::string TierStatusText() const;

  // --- address space registry (the rmap analogue) -----------------------------
  void RegisterSpace(AddressSpace* space);
  void UnregisterSpace(AddressSpace* space);
  const std::vector<AddressSpace*>& spaces() const noexcept { return spaces_; }

  // --- background kernel work (driven by System each quantum) ----------------
  /// kswapd: if above the high watermark, evicts cold pages until below the
  /// low watermark (bounded per call).
  void RunReclaimIfNeeded(SimTimeUs now);
  /// khugepaged: slow background collapse of partially-resident blocks when
  /// THP is in `always` mode. Models the Linux default scan rate; failing
  /// scans (injected collapse errors, no progress) stretch the period
  /// exponentially and a successful collapse re-arms it.
  void RunKhugepaged(SimTimeUs now);
  /// Direct reclaim on the allocation path: an allocating task that found
  /// no free frame reclaims synchronously. Returns pages reclaimed.
  std::uint64_t DirectReclaim(std::uint64_t target_pages, SimTimeUs now);

  // --- fault injection --------------------------------------------------------
  /// Resolves the sim-layer fault points from `plane` (nullptr disables).
  /// The plane must outlive the machine.
  void SetFaultPlane(fault::FaultPlane* plane);
  const MachineFaultPoints& faults() const noexcept { return faults_; }

  /// Latched when an allocation could not be satisfied even after direct
  /// reclaim; the System turns it into an OOM kill on its next step.
  void RaiseOom() noexcept { oom_pending_ = true; }
  bool TakeOomPending() noexcept {
    const bool p = oom_pending_;
    oom_pending_ = false;
    return p;
  }

  MachineCounters& counters() noexcept { return counters_; }
  const MachineCounters& counters() const noexcept { return counters_; }

 private:
  /// One bounded reclaimer pass (kswapd or direct reclaim) for victims in
  /// `victim_tier` (-1 = any): scans up to 8 pages per target page, counts
  /// the scan and the pages it reclaimed, and returns those pages.
  std::uint64_t ReclaimPass(std::uint64_t target_pages, int victim_tier,
                            SimTimeUs now);

  MachineSpec spec_;
  CostModel costs_;
  SwapDevice swap_;
  ThpMode thp_mode_;
  std::uint64_t used_frames_ = 0;
  TierGeometry tiers_;
  TierPolicy tier_policy_ = TierPolicy::kNone;
  std::vector<std::uint64_t> tier_used_pages_;
  // Failed-placement count per tier since the balancer's last pass — the
  // demand signal that wakes the demotion cascade on a full middle tier.
  // Mutable: PickDemotionTier is logically const (a placement query) but
  // records the skip like any other failed allocation.
  mutable std::vector<std::uint64_t> tier_alloc_skips_;
  std::size_t tier_space_cursor_ = 0;  // balancer round-robin over spaces
  std::vector<AddressSpace*> spaces_;
  std::unique_ptr<Reclaimer> reclaimer_;
  SimTimeUs next_khugepaged_ = 0;
  std::uint64_t khugepaged_backoff_ = 1;  // period multiplier, doubled on failure
  MachineCounters counters_;
  MachineFaultPoints faults_;
  bool oom_pending_ = false;
};

}  // namespace daos::sim
