// The Memory Management Schemes Engine (paper §3.2, Figure 1).
//
// The engine registers itself as an aggregation hook on a DamonContext.
// At every aggregation interval it walks the fresh monitoring results,
// finds regions fulfilling each installed scheme's conditions, and applies
// the scheme's action through the target's primitives — the kernel-space
// half of DAOS that lets users optimize memory with "no code, just simple
// configuration schemes".
#pragma once

#include <string>
#include <vector>

#include "damon/monitor.hpp"
#include "damos/scheme.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_buffer.hpp"

namespace daos::damos {

class SchemesEngine {
 public:
  SchemesEngine() = default;
  explicit SchemesEngine(std::vector<Scheme> schemes)
      : schemes_(std::move(schemes)) {}

  /// Registers the engine on `ctx`. The engine must outlive the context's
  /// use of the hook.
  void Attach(damon::DamonContext& ctx);

  /// Replaces the installed schemes (the "debugfs write" of §3.6). Returns
  /// false and leaves the installed schemes unchanged on parse errors,
  /// which are reported via `errors` when non-null. Parsed schemes start
  /// with cold stats and runtime.
  bool InstallFromText(std::string_view text,
                       std::vector<std::string>* errors = nullptr);
  /// Replaces the installed schemes with `schemes` exactly as they are,
  /// stats and runtime included: a checkpoint restore installs its
  /// captured schemes warm, a freshly constructed scheme starts cold.
  void Install(std::vector<Scheme> schemes) { schemes_ = std::move(schemes); }

  /// Binds the machine whose metrics feed watermark gates and whose cost
  /// model prices time quotas. Optional: without it, watermarks fail open
  /// and time quotas use the default CostModel.
  void SetMachine(const sim::Machine* machine) noexcept { machine_ = machine; }

  /// How a transactional scheme commit mapped new schemes onto old ones.
  struct CommitOutcome {
    std::size_t carried = 0;       // schemes whose stats/runtime survived
    std::size_t fresh = 0;         // schemes with no old identity match
    std::size_t quota_resets = 0;  // carried schemes whose quota changed
  };

  /// Replaces the installed schemes *transactionally* (upstream DAMON's
  /// damos commit): each new scheme takes the stats and runtime of the
  /// first not yet taken installed scheme with equal bounds — a retune of
  /// policy knobs must not reset the window's spent budget (and must not
  /// launder a fresh one). Only what changed is reset: a changed quota
  /// spec zeroes the quota charges, a changed watermark spec re-opens the
  /// gate, an unmatched scheme keeps what it came with (cold, if parsed).
  /// The caller validates the scheme text beforehand; this call cannot
  /// fail.
  CommitOutcome CommitSchemes(std::vector<Scheme> schemes);

  /// Degraded mode (lifecycle crash-loop containment): while disarmed, the
  /// apply pass returns immediately — monitoring continues, no action
  /// runs, no stats or budgets move. Re-arming resumes exactly where the
  /// pass state was left.
  void SetDisarmed(bool disarmed) noexcept { disarmed_ = disarmed; }
  bool disarmed() const noexcept { return disarmed_; }

  std::vector<Scheme>& schemes() noexcept { return schemes_; }
  const std::vector<Scheme>& schemes() const noexcept { return schemes_; }

  /// One application pass over the context's current regions; normally
  /// driven by the aggregation hook, public for tests.
  void Apply(damon::DamonContext& ctx, SimTimeUs now);

  /// Serialized stats for every scheme ("debugfs read").
  std::string StatsText() const;

  /// Publishes per-scheme DAMOS-stat counters
  /// ("<prefix>.scheme<i>.{nr_tried,sz_tried,nr_applied,sz_applied,errors,
  /// backoffs,qt_exceeds,sz_quota_exceeded,wmark_deactivations}") through
  /// `registry` and, when `trace` is non-null, a kSchemeApply tracepoint
  /// per applied region, a kSchemeBackoff tracepoint whenever a scheme is
  /// parked, a kQuotaExceeded tracepoint per pass that hit a quota wall,
  /// and a kWatermark tracepoint on every gate transition. Counters survive
  /// scheme reinstalls (instruments are resolved per slot index, lazily on
  /// the next Apply).
  void BindTelemetry(telemetry::MetricsRegistry& registry,
                     telemetry::TraceBuffer* trace = nullptr,
                     std::string_view prefix = "damos");

 private:
  struct SchemeInstruments {
    telemetry::Counter* nr_tried = nullptr;
    telemetry::Counter* sz_tried = nullptr;
    telemetry::Counter* nr_applied = nullptr;
    telemetry::Counter* sz_applied = nullptr;
    telemetry::Counter* errors = nullptr;
    telemetry::Counter* backoffs = nullptr;
    telemetry::Counter* qt_exceeds = nullptr;
    telemetry::Counter* sz_quota_exceeded = nullptr;
    telemetry::Counter* wmark_deactivations = nullptr;
  };
  /// (Re)resolves one instrument set per installed scheme slot.
  void RebindInstruments();

  std::vector<Scheme> schemes_;
  bool disarmed_ = false;
  const sim::Machine* machine_ = nullptr;
  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::TraceBuffer* trace_ = nullptr;
  std::string prefix_;
  std::vector<SchemeInstruments> instruments_;
};

}  // namespace daos::damos
