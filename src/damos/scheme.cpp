#include "damos/scheme.hpp"

#include <charconv>
#include <cmath>

#include "util/strings.hpp"
#include "util/units.hpp"

namespace daos::damos {

bool Scheme::Matches(const damon::Region& region,
                     const damon::MonitoringAttrs& attrs) const {
  const std::uint64_t sz = region.size();
  if (sz < bounds_.min_size || sz > bounds_.max_size) return false;

  const double freq = static_cast<double>(region.nr_accesses);
  if (freq < bounds_.min_freq.ToSamples(attrs)) return false;
  if (freq > bounds_.max_freq.ToSamples(attrs)) return false;

  // Region age is counted in aggregation intervals; scheme bounds are
  // durations. Saturate the multiply for long-lived regions.
  const double age_us = static_cast<double>(region.age) *
                        static_cast<double>(attrs.aggregation_interval);
  if (age_us < static_cast<double>(bounds_.min_age)) return false;
  if (bounds_.max_age != kMaxU64 &&
      age_us > static_cast<double>(bounds_.max_age))
    return false;
  return true;
}

namespace {

std::string SizeToken(std::uint64_t v, bool is_min) {
  if (is_min && v == 0) return "min";
  if (v == kMaxU64) return "max";
  // FormatSize rounds to a tenth of its unit; where that would not read
  // back, the byte count does.
  std::string text = FormatSize(v);
  return ParseSize(text) == v ? text : std::to_string(v);
}

// FormatPercent rounds to two decimals; where that would not read back, the
// shortest fixed-point percentage does (any double fits in the buffer).
std::string PercentToken(double fraction) {
  std::string text = FormatPercent(fraction);
  if (ParsePercent(text) == fraction) return text;
  char buf[400];
  text.assign(buf, std::to_chars(buf, buf + sizeof buf, fraction * 100.0,
                                 std::chars_format::fixed)
                       .ptr);
  return text + "%";
}

std::string FreqToken(const FreqBound& f, bool is_min) {
  if (f.unit == FreqBound::Unit::kSamples) return ExactDouble(f.value);
  if (f.value <= 0.0) return "min";  // the listings write "min min"
  if (!is_min && f.value == 1.0) return "max";
  return PercentToken(f.value);
}

std::string AgeToken(SimTimeUs v, bool is_min) {
  if (is_min && v == 0) return "min";
  if (v == kMaxU64) return "max";
  return FormatDuration(v);
}

}  // namespace

std::string Scheme::ToText() const {
  std::string out;
  out += SizeToken(bounds_.min_size, true);
  out += ' ';
  out += SizeToken(bounds_.max_size, false);
  out += ' ';
  out += FreqToken(bounds_.min_freq, true);
  out += ' ';
  out += FreqToken(bounds_.max_freq, false);
  out += ' ';
  out += AgeToken(bounds_.min_age, true);
  out += ' ';
  out += AgeToken(bounds_.max_age, false);
  out += ' ';
  out += std::string(damon::DamosActionName(bounds_.action));
  out += policy_.ToText();  // empty when disarmed: old 7-field form
  return out;
}

std::string FormatStats(const SchemeStats& stats) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "tried %llu (%llu bytes) applied %llu (%llu bytes) "
                "errors %llu backoffs %llu qt_exceeds %llu "
                "sz_quota_exceeded %llu wmarks %s",
                static_cast<unsigned long long>(stats.nr_tried),
                static_cast<unsigned long long>(stats.sz_tried),
                static_cast<unsigned long long>(stats.nr_applied),
                static_cast<unsigned long long>(stats.sz_applied),
                static_cast<unsigned long long>(stats.nr_errors),
                static_cast<unsigned long long>(stats.nr_backoffs),
                static_cast<unsigned long long>(stats.qt_exceeds),
                static_cast<unsigned long long>(stats.sz_quota_exceeded),
                stats.wmark_active ? "active" : "inactive");
  return buf;
}

Scheme Scheme::Prcl(SimTimeUs min_age) {
  SchemeBounds b;
  b.min_size = 4 * KiB;
  b.min_freq = FreqBound::MinValue();
  b.max_freq = FreqBound::MinValue();  // "min min": zero access rate only
  b.min_age = min_age;
  b.action = damon::DamosAction::kPageout;
  return Scheme(b);
}

Scheme Scheme::EthpHugepage(double min_samples) {
  SchemeBounds b;
  b.min_freq = FreqBound::Samples(min_samples);
  b.action = damon::DamosAction::kHugepage;
  return Scheme(b);
}

Scheme Scheme::EthpNohugepage(SimTimeUs min_age) {
  SchemeBounds b;
  b.min_size = 2 * MiB;
  b.min_freq = FreqBound::MinValue();
  b.max_freq = FreqBound::MinValue();
  b.min_age = min_age;
  b.action = damon::DamosAction::kNohugepage;
  return Scheme(b);
}

Scheme Scheme::WssStat() {
  SchemeBounds b;
  b.min_freq = FreqBound::Samples(1.0);
  b.action = damon::DamosAction::kStat;
  return Scheme(b);
}

}  // namespace daos::damos
