#include "damos/engine.hpp"

#include <algorithm>
#include <cstdio>

#include "damos/parser.hpp"

namespace daos::damos {
namespace {

// Failure backoff: after the k-th consecutive error-only pass a scheme is
// parked for aggregation_interval << min(k, kMaxBackoffExp) — capped so a
// persistently failing scheme is still re-armed to probe for recovery
// (2^6 = 64 aggregations, ~6.4 s under paper settings).
constexpr std::uint32_t kMaxBackoffExp = 6;

}  // namespace

void SchemesEngine::Attach(damon::DamonContext& ctx) {
  ctx.AddAggregationHook(
      [this](damon::DamonContext& c, SimTimeUs now) { Apply(c, now); });
}

bool SchemesEngine::InstallFromText(std::string_view text,
                                    std::vector<std::string>* errors) {
  ParseResult parsed = ParseSchemes(text);
  if (!parsed.ok()) {
    if (errors != nullptr) {
      for (const ParseError& e : parsed.errors) {
        errors->push_back("line " + std::to_string(e.line_number) + ": " +
                          e.message);
      }
    }
    return false;
  }
  schemes_ = std::move(parsed.schemes);
  return true;
}

void SchemesEngine::BindTelemetry(telemetry::MetricsRegistry& registry,
                                  telemetry::TraceBuffer* trace,
                                  std::string_view prefix) {
  registry_ = &registry;
  trace_ = trace;
  prefix_ = std::string(prefix);
  RebindInstruments();
}

void SchemesEngine::RebindInstruments() {
  instruments_.clear();
  if (registry_ == nullptr) return;
  for (std::size_t i = 0; i < schemes_.size(); ++i) {
    const std::string base = prefix_ + ".scheme" + std::to_string(i) + ".";
    instruments_.push_back(SchemeInstruments{
        &registry_->GetCounter(base + "nr_tried"),
        &registry_->GetCounter(base + "sz_tried"),
        &registry_->GetCounter(base + "nr_applied"),
        &registry_->GetCounter(base + "sz_applied"),
        &registry_->GetCounter(base + "errors"),
        &registry_->GetCounter(base + "backoffs"),
        &registry_->GetCounter(base + "qt_exceeds"),
        &registry_->GetCounter(base + "sz_quota_exceeded"),
        &registry_->GetCounter(base + "wmark_deactivations"),
    });
  }
}

SchemesEngine::CommitOutcome SchemesEngine::CommitSchemes(
    std::vector<Scheme> schemes) {
  CommitOutcome outcome;
  std::vector<bool> old_taken(schemes_.size(), false);
  for (Scheme& incoming : schemes) {
    std::size_t match = schemes_.size();
    for (std::size_t oi = 0; oi < schemes_.size(); ++oi) {
      if (old_taken[oi]) continue;
      if (schemes_[oi].bounds() == incoming.bounds()) {
        match = oi;
        break;
      }
    }
    if (match == schemes_.size()) {
      ++outcome.fresh;  // no identity match: keeps its own (cold) state
      continue;
    }
    old_taken[match] = true;
    ++outcome.carried;
    const Scheme& old = schemes_[match];
    incoming.stats() = old.stats();
    incoming.runtime() = old.runtime();
    // Reset only what changed: a new quota spec starts a fresh charge
    // window, a new watermark spec re-opens the gate.
    if (incoming.policy().quota != old.policy().quota) {
      incoming.runtime().quota = governor::QuotaState{};
      ++outcome.quota_resets;
    }
    if (incoming.policy().wmarks != old.policy().wmarks) {
      incoming.runtime().wmark = governor::WatermarkGate{};
      incoming.stats().wmark_active = true;
    }
  }

  schemes_ = std::move(schemes);
  if (registry_ != nullptr) RebindInstruments();
  return outcome;
}

void SchemesEngine::Apply(damon::DamonContext& ctx, SimTimeUs now) {
  if (disarmed_) return;  // degraded mode: monitoring-only, schemes idle
  if (registry_ != nullptr && instruments_.size() != schemes_.size())
    RebindInstruments();  // schemes were reinstalled since the last pass
  const damon::MonitoringAttrs& attrs = ctx.attrs();

  // Per-pass aggregates, so the backoff decision sees the whole pass (a
  // scheme failing on one region but applying on another is degraded, not
  // dead). Kept outside the region loops to preserve the original
  // targets->regions->schemes application order exactly.
  struct PassAgg {
    std::uint64_t tried = 0;
    std::uint64_t applied_bytes = 0;
    std::uint64_t errors = 0;
    std::uint64_t quota_blocked = 0;
    std::uint64_t quota_blocked_bytes = 0;
  };
  std::vector<PassAgg> pass(schemes_.size());
  auto parked = [now](const Scheme& scheme) {
    const SimTimeUs until = scheme.runtime().backoff_until;
    return until != 0 && now < until;
  };
  for (Scheme& scheme : schemes_) {
    if (parked(scheme)) scheme.stats().nr_skipped += 1;
  }

  // Governor plan phase: watermark gate + quota window roll per scheme.
  // A disarmed policy returns the default plan through a single branch,
  // leaving the region loop below bit-identical to the ungoverned engine.
  std::vector<governor::PassPlan> plans(schemes_.size());
  for (std::size_t si = 0; si < schemes_.size(); ++si) {
    Scheme& scheme = schemes_[si];
    plans[si] = governor::PlanPass(scheme.policy(), scheme.action(), now,
                                   machine_, &scheme.runtime().quota,
                                   &scheme.runtime().wmark);
    if (scheme.policy().wmarks.armed()) {
      scheme.stats().wmark_active = plans[si].wmark_active;
      if (plans[si].wmark_transition) {
        if (!plans[si].wmark_active) {
          scheme.stats().nr_wmark_deactivations += 1;
          if (!instruments_.empty())
            instruments_[si].wmark_deactivations->Add(1);
        }
        if (trace_ != nullptr) {
          // kWatermark: id=scheme slot, arg0=sampled metric (permille),
          // arg1=new activation state (1 = active).
          trace_->Push({now, telemetry::EventKind::kWatermark,
                        static_cast<std::uint32_t>(si),
                        plans[si].wmark_metric,
                        plans[si].wmark_active ? 1u : 0u, 0});
        }
      }
    }
  }

  // Prioritization pre-walk: schemes whose budget needs a min-score cutoff
  // see their matching set once before any application, so the cutoff is
  // computed from the same regions the apply loop will visit.
  for (std::size_t si = 0; si < schemes_.size(); ++si) {
    if (!plans[si].wants_facts) continue;
    if (parked(schemes_[si]))
      continue;  // parked: the apply loop will not visit it either
    std::vector<governor::RegionFacts> facts;
    for (damon::DamonTarget& target : ctx.targets()) {
      for (damon::Region& region : target.regions) {
        if (!schemes_[si].Matches(region, attrs)) continue;
        facts.push_back(governor::RegionFacts{region.size(),
                                              region.nr_accesses, region.age});
      }
    }
    governor::FinishPlan(&plans[si], facts, schemes_[si].runtime().quota);
  }

  for (damon::DamonTarget& target : ctx.targets()) {
    for (damon::Region& region : target.regions) {
      for (std::size_t si = 0; si < schemes_.size(); ++si) {
        Scheme& scheme = schemes_[si];
        if (parked(scheme)) continue;  // parked by the failure backoff
        const governor::PassPlan& plan = plans[si];
        if (plan.skip) continue;  // watermark-inactive: not even "tried"
        if (!scheme.Matches(region, attrs)) continue;
        if (plan.prioritized) {
          const governor::RegionFacts facts{region.size(),
                                            region.nr_accesses, region.age};
          if (governor::ScoreRegion(facts, plan.scale, plan.weights,
                                    plan.cold_first) < plan.min_score) {
            continue;  // budget reserved for higher-priority regions
          }
        }
        std::uint64_t attempt = region.size();
        if (plan.governed) {
          attempt = governor::ClipToBudget(scheme.runtime().quota,
                                           region.size());
          if (attempt == 0) {
            scheme.stats().qt_exceeds += 1;
            scheme.stats().sz_quota_exceeded += region.size();
            pass[si].quota_blocked += 1;
            pass[si].quota_blocked_bytes += region.size();
            if (!instruments_.empty()) {
              instruments_[si].qt_exceeds->Add(1);
              instruments_[si].sz_quota_exceeded->Add(region.size());
            }
            continue;
          }
          // Attempt-based: charged before the action runs, so a failing
          // device cannot launder extra budget.
          governor::Charge(&scheme.runtime().quota, scheme.action(), attempt,
                           machine_);
        }
        scheme.stats().nr_tried += 1;
        scheme.stats().sz_tried += attempt;
        std::uint64_t errors = 0;
        const std::uint64_t applied = target.primitives->ApplyAction(
            scheme.action(), region.start, region.start + attempt, now,
            &errors);
        pass[si].tried += 1;
        pass[si].applied_bytes += applied;
        pass[si].errors += errors;
        if (applied > 0) {
          scheme.stats().nr_applied += 1;
          scheme.stats().sz_applied += applied;
        }
        scheme.stats().nr_errors += errors;
        if (!instruments_.empty()) {
          const SchemeInstruments& ti = instruments_[si];
          ti.nr_tried->Add(1);
          ti.sz_tried->Add(attempt);
          if (applied > 0) {
            ti.nr_applied->Add(1);
            ti.sz_applied->Add(applied);
          }
          if (errors > 0) ti.errors->Add(errors);
        }
        if (trace_ != nullptr && applied > 0) {
          // kSchemeApply: id=scheme slot, arg0..1=applied range, arg2=bytes
          // applied (range end is quota-clipped when governed).
          trace_->Push({now, telemetry::EventKind::kSchemeApply,
                        static_cast<std::uint32_t>(si), region.start,
                        region.start + attempt, applied});
        }
      }
    }
  }

  // One kQuotaExceeded tracepoint per scheme per pass that hit the wall,
  // not one per blocked region — the wall is a pass-level condition.
  if (trace_ != nullptr) {
    for (std::size_t si = 0; si < schemes_.size(); ++si) {
      if (pass[si].quota_blocked == 0) continue;
      // kQuotaExceeded: id=scheme slot, arg0=regions blocked this pass,
      // arg1=bytes blocked, arg2=bytes charged in the current window.
      trace_->Push({now, telemetry::EventKind::kQuotaExceeded,
                    static_cast<std::uint32_t>(si), pass[si].quota_blocked,
                    pass[si].quota_blocked_bytes,
                    schemes_[si].runtime().quota.charged_sz});
    }
  }

  // Post-pass backoff bookkeeping. A pass that only produced errors parks
  // the scheme exponentially; any pass that applied bytes re-arms it.
  for (std::size_t si = 0; si < schemes_.size(); ++si) {
    SchemeRuntime& rt = schemes_[si].runtime();
    if (pass[si].errors > 0 && pass[si].applied_bytes == 0 &&
        pass[si].tried > 0) {
      const std::uint32_t exp = std::min(rt.backoff_exp, kMaxBackoffExp);
      const SimTimeUs park = attrs.aggregation_interval << (exp + 1);
      rt.backoff_until = now + park;
      ++rt.backoff_exp;
      schemes_[si].stats().nr_backoffs += 1;
      if (!instruments_.empty()) instruments_[si].backoffs->Add(1);
      if (trace_ != nullptr) {
        // kSchemeBackoff: id=scheme slot, arg0=errors this pass, arg1=park
        // duration (µs), arg2=consecutive error-only passes.
        trace_->Push({now, telemetry::EventKind::kSchemeBackoff,
                      static_cast<std::uint32_t>(si), pass[si].errors, park,
                      rt.backoff_exp});
      }
    } else if (pass[si].applied_bytes > 0) {
      rt.backoff_exp = 0;
      rt.backoff_until = 0;
    }
  }
}

std::string SchemesEngine::StatsText() const {
  std::string out;
  for (const Scheme& s : schemes_) {
    out += s.ToText();
    out += ": ";
    out += FormatStats(s.stats());
    out += '\n';
  }
  return out;
}

}  // namespace daos::damos
