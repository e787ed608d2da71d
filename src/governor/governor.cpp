#include "governor/governor.hpp"

#include "sim/machine.hpp"

namespace daos::governor {

namespace {

const sim::CostModel& Costs(const sim::Machine* machine) noexcept {
  static const sim::CostModel kDefault{};
  return machine != nullptr ? machine->costs() : kDefault;
}

}  // namespace

PassPlan PlanPass(const GovernorPolicy& policy, damon::DamosAction action,
                  SimTimeUs now, const sim::Machine* machine,
                  QuotaState* quota, WatermarkGate* gate) {
  PassPlan plan;
  if (!policy.armed()) return plan;  // the disarmed single branch

  if (policy.wmarks.armed() && machine != nullptr) {
    const WatermarkSpec& w = policy.wmarks;
    if (now >= gate->next_check) {
      std::uint32_t metric = 0;
      switch (w.metric) {
        case WatermarkMetric::kFreeMemRate:
          metric = machine->FreeMemRatePermille();
          break;
        case WatermarkMetric::kNone:
          break;
      }
      const bool was_active = gate->active;
      if (metric > w.high || metric < w.low) {
        // Healthy (lots of free memory) or emergency (so little that the
        // kernel's own reclaim owns the field): stand down.
        gate->active = false;
      } else if (!gate->active && metric <= w.mid) {
        // Hysteresis: a deactivated scheme re-arms only once the metric
        // falls to mid, not the moment it dips under high.
        gate->active = true;
      }
      gate->next_check = now + w.interval;
      plan.wmark_transition = was_active != gate->active;
      plan.wmark_metric = metric;
    }
    plan.wmark_active = gate->active;
    if (!gate->active) {
      plan.skip = true;
      return plan;  // deactivated: no quota roll, no stats, no work
    }
  }

  if (policy.quota.armed()) {
    quota->RollWindow(policy.quota, action, Costs(machine), now);
    plan.governed = true;
    plan.wants_facts = policy.prio.armed();
    plan.weights = policy.prio;
    plan.cold_first = ColdFirst(action);
  }
  return plan;
}

void FinishPlan(PassPlan* plan, const std::vector<RegionFacts>& facts,
                const QuotaState& quota) {
  if (!plan->wants_facts) return;
  plan->wants_facts = false;
  if (facts.empty()) return;

  for (const RegionFacts& f : facts) plan->scale.Fold(f);
  PriorityHistogram histogram;
  for (const RegionFacts& f : facts) {
    histogram.Add(ScoreRegion(f, plan->scale, plan->weights, plan->cold_first),
                  f.sz);
  }
  plan->min_score = histogram.MinScoreFor(quota.remaining());
  plan->prioritized = true;
}

std::uint64_t ClipToBudget(const QuotaState& quota,
                           std::uint64_t region_bytes) noexcept {
  const std::uint64_t remaining = quota.remaining();
  const std::uint64_t allow =
      region_bytes < remaining ? region_bytes : remaining;
  return allow & ~(kPageSize - 1);  // whole pages only
}

void Charge(QuotaState* quota, damon::DamosAction action,
            std::uint64_t bytes, const sim::Machine* machine) noexcept {
  quota->Charge(bytes, action, Costs(machine));
}

}  // namespace daos::governor
