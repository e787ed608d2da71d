#include "telemetry/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace daos::telemetry {

std::string_view InstrumentKindName(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter:
      return "counter";
    case InstrumentKind::kGauge:
      return "gauge";
    case InstrumentKind::kHistogram:
      return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::logic_error(
        "telemetry: histogram bounds must be sorted and strictly increasing");
  }
}

void Histogram::Observe(double v) noexcept {
  // First bucket whose upper bound admits v (le semantics); past-the-end ==
  // the +Inf overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

MetricsSnapshot::MetricsSnapshot(std::vector<MetricSample> samples)
    : samples_(std::move(samples)) {
  std::sort(samples_.begin(), samples_.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
}

const MetricSample* MetricsSnapshot::Find(std::string_view name) const {
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), name,
      [](const MetricSample& s, std::string_view n) { return s.name < n; });
  if (it == samples_.end() || it->name != name) return nullptr;
  return &*it;
}

double MetricsSnapshot::Value(std::string_view name, double fallback) const {
  const MetricSample* s = Find(name);
  return s != nullptr ? s->value : fallback;
}

struct MetricsRegistry::Instrument {
  InstrumentKind kind;
  Counter counter;
  std::unique_ptr<Histogram> histogram;  // only for kHistogram
  Gauge gauge;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Instrument& MetricsRegistry::GetOrCreate(
    std::string_view name, InstrumentKind kind, std::vector<double>* bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = instruments_.find(name);
  if (it != instruments_.end()) {
    if (it->second->kind != kind) {
      throw std::logic_error("telemetry: '" + std::string(name) +
                             "' already registered as " +
                             std::string(InstrumentKindName(it->second->kind)) +
                             ", requested as " +
                             std::string(InstrumentKindName(kind)));
    }
    if (kind == InstrumentKind::kHistogram && bounds != nullptr &&
        it->second->histogram->bounds() != *bounds) {
      throw std::logic_error("telemetry: histogram '" + std::string(name) +
                             "' re-registered with different bounds");
    }
    return *it->second;
  }
  auto inst = std::make_unique<Instrument>();
  inst->kind = kind;
  if (kind == InstrumentKind::kHistogram) {
    inst->histogram.reset(new Histogram(std::move(*bounds)));
  }
  return *instruments_.emplace(std::string(name), std::move(inst))
              .first->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  return GetOrCreate(name, InstrumentKind::kCounter, nullptr).counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  return GetOrCreate(name, InstrumentKind::kGauge, nullptr).gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  return *GetOrCreate(name, InstrumentKind::kHistogram, &bounds).histogram;
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return instruments_.size();
}

std::vector<std::string> MetricsRegistry::Names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(instruments_.size());
  for (const auto& [name, inst] : instruments_) out.push_back(name);
  return out;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> samples;
  samples.reserve(instruments_.size());
  for (const auto& [name, inst] : instruments_) {
    MetricSample s;
    s.name = name;
    s.kind = inst->kind;
    switch (inst->kind) {
      case InstrumentKind::kCounter:
        s.value = static_cast<double>(inst->counter.value());
        break;
      case InstrumentKind::kGauge:
        s.value = inst->gauge.value();
        break;
      case InstrumentKind::kHistogram:
        s.value = inst->histogram->sum();
        s.count = inst->histogram->count();
        s.bounds = inst->histogram->bounds();
        s.buckets = inst->histogram->bucket_counts();
        break;
    }
    samples.push_back(std::move(s));
  }
  return MetricsSnapshot(std::move(samples));
}

std::vector<double> MetricsRegistry::DefaultLatencyBoundsUs() {
  return {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6};
}

}  // namespace daos::telemetry
