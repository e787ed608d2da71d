#include "damon/attrs.hpp"

#include "util/strings.hpp"

namespace daos::damon {
namespace {

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

bool ParseAttrsLine(std::string_view line, MonitoringAttrs* attrs,
                    std::string* error) {
  const auto tokens = SplitWhitespace(line);
  if (tokens.size() != 5)
    return Fail(error,
                "attrs expects: sample_us aggr_us update_us min_nr max_nr");
  MonitoringAttrs parsed = *attrs;
  SimTimeUs* intervals[] = {&parsed.sampling_interval,
                            &parsed.aggregation_interval,
                            &parsed.regions_update_interval};
  std::uint32_t* nr_regions[] = {&parsed.min_nr_regions,
                                 &parsed.max_nr_regions};
  for (int i = 0; i < 5; ++i) {
    const bool ok =
        i < 3 ? StoreParsed(ParseU64(tokens[i]), *intervals[i])
              : StoreParsed(ParseU32(tokens[i]), *nr_regions[i - 3]);
    if (!ok) return Fail(error, "bad number '" + std::string(tokens[i]) + "'");
  }
  *attrs = parsed;
  return true;
}

bool ValidateAttrs(const MonitoringAttrs& attrs, std::string* error) {
  if (attrs.sampling_interval == 0)
    return Fail(error, "attrs: sampling interval must be > 0");
  if (attrs.aggregation_interval < attrs.sampling_interval)
    return Fail(error, "attrs: aggregation interval below sampling interval");
  if (attrs.min_nr_regions == 0 || attrs.max_nr_regions < attrs.min_nr_regions)
    return Fail(error, "attrs: need 0 < min_nr_regions <= max_nr_regions");
  return true;
}

}  // namespace daos::damon
