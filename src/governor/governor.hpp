// The DAMOS governor: the control plane the SchemesEngine consults before
// and during every apply pass.
//
// Three cooperating mechanisms, mirroring what upstream DAMON grew after
// the paper (quotas, under-quota prioritization, watermarks):
//
//   1. Quotas (quota.hpp) bound the bytes / modelled action time a scheme
//      may spend per reset window, with charge state that survives scheme
//      backoff and watermark re-arm.
//   2. Prioritization (priority.hpp) spends an insufficient budget on the
//      best-scoring regions first instead of address order, through an
//      adaptive min-score cutoff recomputed every pass.
//   3. Watermarks gate a scheme on a machine metric (free_mem_rate):
//      while the metric says the system is healthy (above `high`) — or in
//      a low-memory emergency (below `low`) — the scheme is deactivated
//      entirely and its pass does nothing; it re-arms once the metric
//      falls back to `mid`.
//
// The governor holds no state of its own: each scheme carries its runtime
// (quota charges, watermark gate) next to its stats, and the functions
// below read and update it, with the machine passed in. The configuration
// lives in each scheme's GovernorPolicy. The engine drives region
// iteration and stats — the governor decides skip / clip / charge. A
// disarmed policy takes one branch in PlanPass and leaves the apply loop
// bit-identical to the ungoverned engine.
#pragma once

#include <vector>

#include "governor/policy.hpp"
#include "governor/priority.hpp"
#include "governor/quota.hpp"

namespace daos::governor {

/// The per-scheme, per-pass decision handed to the engine.
struct PassPlan {
  bool skip = false;         // watermark-inactive: the scheme does nothing
  bool governed = false;     // quota armed: clip-and-charge applies
  bool wants_facts = false;  // prioritized: engine must collect RegionFacts
  bool prioritized = false;  // min-score cutoff active (set by FinishPlan)
  // Watermark observation of this pass (valid when the gate is armed).
  bool wmark_active = true;
  bool wmark_transition = false;  // activation state flipped this pass
  std::uint32_t wmark_metric = 0;  // sampled metric, permille
  // Prioritization parameters (valid when `prioritized`).
  std::uint32_t min_score = 0;
  ScoreScale scale;
  PrioWeights weights;
  bool cold_first = false;
};

/// One scheme's watermark gate. Kernel default: schemes start active.
struct WatermarkGate {
  bool active = true;
  SimTimeUs next_check = 0;
};

/// Watermark gate + quota window roll for one scheme. Cheap single branch
/// when `policy` is disarmed. Watermarks without a `machine` fail open
/// (the scheme stays active); time quotas then use the default CostModel.
/// When the returned plan `wants_facts`, the engine collects the matching
/// regions' facts and calls FinishPlan before applying.
PassPlan PlanPass(const GovernorPolicy& policy, damon::DamosAction action,
                  SimTimeUs now, const sim::Machine* machine,
                  QuotaState* quota, WatermarkGate* gate);

/// Computes the adaptive min-score cutoff from the matching set.
void FinishPlan(PassPlan* plan, const std::vector<RegionFacts>& facts,
                const QuotaState& quota);

/// Bytes of `region_bytes` the remaining window budget admits, aligned
/// down to whole pages (0 = quota exhausted for this region).
std::uint64_t ClipToBudget(const QuotaState& quota,
                           std::uint64_t region_bytes) noexcept;

/// Charges an attempted application (call once per admitted region,
/// before the action runs — failures still consume budget).
void Charge(QuotaState* quota, damon::DamosAction action,
            std::uint64_t bytes, const sim::Machine* machine) noexcept;

}  // namespace daos::governor
