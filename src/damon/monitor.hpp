// The Data Access Monitor core (paper §3.1, the "Data Access Monitor" box
// of Figure 2): region-based access checks, adaptive regions adjustment,
// and aging, independent of the monitoring target.
//
// One DamonContext corresponds to one kdamond: it owns monitoring targets
// (each a Primitives implementation plus its regions), runs sampling /
// aggregation / regions-update at the configured intervals, and invokes
// registered aggregation hooks (the user callback of the paper; the DAMOS
// schemes engine is simply one such hook).
//
// Overhead accounting is first-class: the context tracks the CPU time its
// checks consume and reports per-step interference, so the paper's
// "monitoring overhead" results (Figure 7, Conclusion 3) are measurable.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "damon/attrs.hpp"
#include "damon/primitives.hpp"
#include "damon/region.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_buffer.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace daos::damon {

struct DamonTarget {
  std::unique_ptr<Primitives> primitives;
  std::vector<Region> regions;
};

class DamonContext;

/// Invoked at each aggregation interval, after access counts are final and
/// before they are reset — the "user-registered callback" of §3.1.
using AggregationHook = std::function<void(DamonContext&, SimTimeUs now)>;

struct MonitorCounters {
  std::uint64_t samples = 0;            // individual access checks performed
  std::uint64_t aggregations = 0;
  std::uint64_t region_splits = 0;
  std::uint64_t region_merges = 0;
  std::uint64_t regions_updates = 0;
  double cpu_us = 0.0;                  // monitor-thread CPU time consumed
};

/// The monitor's scheduling state outside the regions themselves: every
/// deadline, the RNG stream, the counters, and the per-target layout
/// generations. Together with the targets' regions this is everything a
/// checkpoint needs to rebuild a kdamond that continues *bit-identically*
/// (src/lifecycle); regions stay in DamonTarget because the restore side
/// recreates targets through primitives factories first.
struct MonitorSchedState {
  bool primed = false;
  SimTimeUs next_sample = 0;
  SimTimeUs next_aggregate = 0;
  SimTimeUs next_update = 0;
  std::array<std::uint64_t, 4> rng_state{};
  MonitorCounters counters;
  std::vector<std::uint64_t> target_layout_gens;
};

class DamonContext {
 public:
  /// `interference_per_sample_us` models the workload-visible cost of each
  /// accessed-bit clearing (TLB shootdowns); the System distributes what
  /// Step() returns to the running processes.
  explicit DamonContext(MonitoringAttrs attrs, std::uint64_t seed = 42,
                        double interference_per_sample_us = 1.0);

  const MonitoringAttrs& attrs() const noexcept { return attrs_; }
  MonitoringAttrs& attrs() noexcept { return attrs_; }

  /// Adds a monitoring target. Regions are initialized on the next Step().
  DamonTarget& AddTarget(std::unique_ptr<Primitives> primitives);
  std::vector<DamonTarget>& targets() noexcept { return targets_; }
  const std::vector<DamonTarget>& targets() const noexcept { return targets_; }

  void AddAggregationHook(AggregationHook hook) {
    hooks_.push_back(std::move(hook));
  }

  /// Advances the monitor to `now`; runs any due sampling / aggregation /
  /// regions-update work. Returns workload interference in µs (System
  /// Daemon signature). Safe to call with arbitrary strides.
  double Step(SimTimeUs now, SimTimeUs quantum);

  const MonitorCounters& counters() const noexcept { return counters_; }
  std::uint32_t TotalRegions() const;

  /// Publishes the context's counters through `registry` under `prefix`
  /// ("<prefix>.samples", "<prefix>.cpu_us", ...) and, when `trace` is
  /// non-null, emits structured tracepoints (per-region kSample at each
  /// aggregation — the damon_aggregated analogue — plus region
  /// split/merge events). The registry updates are live pointer
  /// increments mirroring `counters_`; both must outlive the context's
  /// stepping.
  void BindTelemetry(telemetry::MetricsRegistry& registry,
                     telemetry::TraceBuffer* trace = nullptr,
                     std::string_view prefix = "damon.ctx0");

  /// Monitor CPU consumption as a fraction of one CPU over [0, now].
  double CpuFraction(SimTimeUs now) const {
    return now == 0 ? 0.0 : counters_.cpu_us / static_cast<double>(now);
  }

  /// Checkpoint hooks (src/lifecycle): the scheduling state that, together
  /// with each target's regions, makes a restored context continue the
  /// exact sampling/aggregation/split stream the captured one would have.
  MonitorSchedState ExportSchedState() const;
  void ImportSchedState(const MonitorSchedState& state);

  /// Transactional online reconfiguration (upstream DAMON's
  /// damon_commit_ctx analogue): swaps the attrs in while *preserving*
  /// regions, ages and counters, and re-derives every deadline from `now`
  /// so the next window opens under the new intervals. The caller (the
  /// lifecycle supervisor) validates the bundle before calling.
  void CommitAttrs(const MonitoringAttrs& attrs, SimTimeUs now);

  // Exposed for tests (each is one well-defined stage of the kdamond loop).
  void InitRegionsFor(DamonTarget& target);
  void PrepareAccessChecks(SimTimeUs now);
  void CheckAccesses();
  void MergeRegions(DamonTarget& target, std::uint32_t threshold,
                    std::uint64_t sz_limit);
  void SplitRegions(DamonTarget& target);
  void UpdateRegions(DamonTarget& target);
  void ResetAggregated();

 private:
  void Aggregate(SimTimeUs now);
  /// Aging (paper §3.1): stable regions age, changed regions reset.
  void UpdateAges(DamonTarget& target);
  /// SplitRegions against a region budget already holding `total` regions.
  void SplitRegions(DamonTarget& target, std::uint32_t total);
  std::uint64_t MinRegionSize(const DamonTarget& target) const;

  MonitoringAttrs attrs_;
  std::vector<DamonTarget> targets_;
  std::vector<AggregationHook> hooks_;
  Rng rng_;
  double interference_per_sample_us_;

  bool primed_ = false;   // first PrepareAccessChecks done
  SimTimeUs next_sample_ = 0;
  SimTimeUs next_aggregate_ = 0;
  SimTimeUs next_update_ = 0;
  std::vector<std::uint64_t> target_layout_gens_;
  MonitorCounters counters_;

  // Telemetry mirror (null when unbound; resolved once in BindTelemetry so
  // hot paths pay a plain increment through a stable pointer).
  struct {
    telemetry::Counter* samples = nullptr;
    telemetry::Counter* aggregations = nullptr;
    telemetry::Counter* region_splits = nullptr;
    telemetry::Counter* region_merges = nullptr;
    telemetry::Counter* regions_updates = nullptr;
    telemetry::Gauge* cpu_us = nullptr;
    telemetry::Gauge* nr_regions = nullptr;
  } tel_;
  telemetry::TraceBuffer* trace_ = nullptr;
  // Timestamp for tracepoints emitted from stages whose signatures carry
  // no clock (MergeRegions/SplitRegions); maintained by Step()/Aggregate().
  SimTimeUs tel_now_ = 0;
};

}  // namespace daos::damon
