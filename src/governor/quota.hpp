// Per-scheme apply budgets over a reset window.
//
// A quota bounds how much work one scheme may do per window: `quota_sz=`
// caps applied bytes directly, `quota_ms=` caps the *modelled* action time
// (the sim's CostModel per-action costs — the analogue of the kernel
// converting a time quota into an effective size via measured throughput;
// the simulation's cost model is the throughput, so the conversion is
// exact and deterministic). Both collapse into one effective byte budget
// per window, and charging is attempt-based: a region is charged when the
// engine commits to applying it, whether or not the action then partially
// fails — so accounting stays consistent when faults eat the work
// mid-window, and a failing device cannot launder extra budget.
#pragma once

#include <cstdint>

#include "damon/primitives.hpp"
#include "governor/policy.hpp"

namespace daos::sim {
struct CostModel;
class Machine;
}  // namespace daos::sim

namespace daos::governor {

/// Modelled cost of applying `action` to `bytes`, from the machine's cost
/// model. STAT is pure accounting and costs nothing.
double ActionCostUs(const sim::CostModel& costs, damon::DamosAction action,
                    std::uint64_t bytes) noexcept;

/// Mutable charge state of one scheme. Survives scheme backoff and
/// watermark re-arm (only a scheme reinstall resets it): a scheme that was
/// parked mid-window resumes against the same remaining budget.
struct QuotaState {
  SimTimeUs window_start = 0;       // current reset window's origin
  std::uint64_t charged_sz = 0;     // bytes charged this window
  double charged_us = 0.0;          // modelled action time this window
  std::uint64_t esz = kMaxU64;      // effective byte budget this window
  // Lifetime accounting (never reset by window rolls).
  std::uint64_t total_charged_sz = 0;
  double total_charged_us = 0.0;

  /// Rolls the window when `reset_interval` elapsed and recomputes the
  /// effective byte budget from both quota dimensions.
  void RollWindow(const QuotaSpec& quota, damon::DamosAction action,
                  const sim::CostModel& costs, SimTimeUs now) noexcept;

  std::uint64_t remaining() const noexcept {
    return charged_sz >= esz ? 0 : esz - charged_sz;
  }

  /// Charges an attempted application of `bytes`.
  void Charge(std::uint64_t bytes, damon::DamosAction action,
              const sim::CostModel& costs) noexcept;
};

}  // namespace daos::governor
