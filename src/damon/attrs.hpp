// Monitoring attributes (paper §3.1): the three intervals and the region
// count bounds that give DAOS its upper-bound-guaranteed overhead.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace daos::damon {

struct MonitoringAttrs {
  /// How often each region's sample page is checked.
  SimTimeUs sampling_interval = 5 * kUsPerMs;
  /// How often access counts are aggregated (callback + regions adjustment).
  SimTimeUs aggregation_interval = 100 * kUsPerMs;
  /// How often the target layout (mmap()s, hotplug) is re-checked.
  SimTimeUs regions_update_interval = 1 * kUsPerSec;
  /// Lower bound on regions: the accuracy floor.
  std::uint32_t min_nr_regions = 10;
  /// Upper bound on regions: the overhead ceiling.
  std::uint32_t max_nr_regions = 1000;
  /// Adaptive regions adjustment (split/merge). Disabling it degrades the
  /// monitor to plain space-based sampling over the initial regions — the
  /// prior-work baseline of §2.2, kept for ablation studies.
  bool adaptive = true;
  /// Access-count change (in samples) above which a region's age resets.
  /// 0 (our default) resets on any change: the random sampler registers a
  /// periodic sweep as a 0->1 blip at most, and treating the blip as
  /// noise would age re-referenced memory into PAGEOUT eligibility. The
  /// kernel uses the 10 % merge threshold (2 under paper settings) —
  /// selectable here for the aging ablation bench.
  std::uint32_t age_reset_threshold = 0;

  /// Access checks per region per aggregation window; a region's access
  /// frequency in percent is nr_accesses / MaxChecksPerAggregation().
  std::uint32_t MaxChecksPerAggregation() const {
    return sampling_interval == 0
               ? 0
               : static_cast<std::uint32_t>(aggregation_interval /
                                            sampling_interval);
  }

  /// The paper's evaluation settings (§4): 5 ms / 100 ms / 1 s, 10..1000.
  static MonitoringAttrs PaperDefaults() { return MonitoringAttrs{}; }
};

/// Parses the five-field wire form "sample_us aggr_us update_us min_nr
/// max_nr" (the dbgfs `attrs` file, the commit bundle's `attrs` directive)
/// into `*attrs`, keeping its other fields. False, `*attrs` untouched and
/// `*error` set on a wrong field count or a bad number; the region counts
/// must fit in 32 bits. Consistency is ValidateAttrs' job.
bool ParseAttrsLine(std::string_view line, MonitoringAttrs* attrs,
                    std::string* error);

/// False and an "attrs: ..." reason in `*error` unless the sampling
/// interval is positive, aggregation is no faster than sampling, and
/// 0 < min_nr_regions <= max_nr_regions.
bool ValidateAttrs(const MonitoringAttrs& attrs, std::string* error);

}  // namespace daos::damon
