// Unified metrics plane for the whole DAOS stack.
//
// The paper's evaluation is entirely about *observing* DAOS itself —
// monitoring overhead (Figure 7), scheme apply rates (Table 1), autotune
// convergence (Figure 8) — and production DAMON exposes tracepoints and
// sysfs stat files for the same reason. This module is that observability
// plane for the reproduction: one process-wide `MetricsRegistry` holding
// typed instruments registered by hierarchical dotted name
// ("damon.ctx0.samples", "sim.swap.ins"), shared by every layer. Each
// component keeps its own counters struct as the source of truth
// (MonitorCounters, SchemeStats, LifecycleCounters, MachineCounters); the
// registry holds a mirror of it, which a late bind catches up to.
//
// Hot-path cost is the design constraint: an instrument handle, once
// resolved, is a stable pointer and updating it is a plain `uint64_t`
// (or `double`) arithmetic operation — no locks, no allocation, no string
// formatting, no map lookup. The single-threaded simulation path pays one
// add per event. Instruments are single-writer: every thread that updates
// them owns its registry (see MetricsRegistry's threading note).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace daos::telemetry {

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time value (may go up and down).
class Gauge {
 public:
  void Set(double v) noexcept { value_ = v; }
  void Add(double delta) noexcept { value_ += delta; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Bucket upper bounds are set at registration and
/// never change; `Observe(v)` lands in the first bucket with `v <= bound`,
/// or in the implicit +Inf overflow bucket. Counts are stored
/// per-bucket (non-cumulative); exporters cumulate for Prometheus `le`
/// semantics.
class Histogram {
 public:
  void Observe(double v) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last is +Inf).
  const std::vector<std::uint64_t>& bucket_counts() const noexcept {
    return buckets_;
  }
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;          // sorted, strictly increasing
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

std::string_view InstrumentKindName(InstrumentKind kind);

/// Value snapshot of one instrument (see MetricsSnapshot).
struct MetricSample {
  std::string name;
  InstrumentKind kind = InstrumentKind::kCounter;
  double value = 0.0;                  // counter / gauge value; histogram sum
  std::uint64_t count = 0;             // histogram observation count
  std::vector<double> bounds;          // histogram bucket upper bounds
  std::vector<std::uint64_t> buckets;  // histogram per-bucket counts
};

/// Point-in-time copy of a whole registry, detached from instrument
/// lifetimes — safe to keep after the registry (and the System under it)
/// is gone. Entries are sorted by name.
class MetricsSnapshot {
 public:
  MetricsSnapshot() = default;
  explicit MetricsSnapshot(std::vector<MetricSample> samples);

  const std::vector<MetricSample>& samples() const noexcept { return samples_; }
  bool empty() const noexcept { return samples_.empty(); }

  /// Sample by exact name; nullptr when absent.
  const MetricSample* Find(std::string_view name) const;
  /// Counter/gauge value (histograms: sum) by name, `fallback` when absent.
  double Value(std::string_view name, double fallback = 0.0) const;

 private:
  std::vector<MetricSample> samples_;  // sorted by name
};

/// Owner of all instruments. Instruments live as long as the registry and
/// never move: the references handed out stay valid, so callers resolve
/// once (at bind time) and update through the reference on the hot path.
///
/// Name semantics: hierarchical dotted lowercase ("layer.object.metric").
/// Re-requesting a name with the same kind returns the same instrument
/// (idempotent — two components may share a counter deliberately);
/// re-requesting with a different kind throws std::logic_error, since the
/// two call sites would otherwise silently corrupt each other's data.
///
/// Threading: creation, lookup, and snapshotting are serialized by an
/// internal mutex, so concurrent experiment runs may register instruments
/// against a shared registry without racing the map. Instrument *updates*
/// through handed-out references stay lock-free and are single-writer:
/// one instrument must not be updated from two threads. Each
/// ParallelRunner run carries its own registry, so that holds there.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();  // out-of-line: Instrument is incomplete here
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// `bounds` must be sorted and strictly increasing; used only on first
  /// registration (a later call with different bounds throws).
  Histogram& GetHistogram(std::string_view name,
                          std::vector<double> bounds = DefaultLatencyBoundsUs());

  std::vector<std::string> Names() const;
  std::size_t size() const;

  MetricsSnapshot Snapshot() const;

  /// Latency-style default buckets in µs: 1,10,100,1e3,1e4,1e5,1e6.
  static std::vector<double> DefaultLatencyBoundsUs();

 private:
  struct Instrument;
  Instrument& GetOrCreate(std::string_view name, InstrumentKind kind,
                          std::vector<double>* bounds);

  mutable std::mutex mu_;  // guards instruments_ (never held on update paths)
  std::map<std::string, std::unique_ptr<Instrument>, std::less<>> instruments_;
};

}  // namespace daos::telemetry
