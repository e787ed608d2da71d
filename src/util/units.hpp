// Human-readable unit parsing and formatting.
//
// The DAOS scheme text format (paper Listings 1 and 3) expresses sizes as
// "4K"/"2MB", times as "5s"/"2m"/"100ms", frequencies as "80%", and uses
// the literal tokens "min"/"max" for unbounded limits. These helpers are
// the single source of truth for that syntax; the damos parser and
// serializer both use them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace daos {

/// Parses "4K", "2M"/"2MB"/"2MiB", "1G", "123" (bytes). Case-insensitive.
/// Rejects values that do not fit in 64 bits.
std::optional<std::uint64_t> ParseSize(std::string_view text);

/// Parses "5ms", "2s", "3m"/"3min", "1h", "250us", bare number = seconds.
/// Rejects values that do not fit in 64 bits.
std::optional<SimTimeUs> ParseDuration(std::string_view text);

/// Parses "80%" or "0.8" into a fraction in [0, 1].
std::optional<double> ParsePercent(std::string_view text);

/// Formats a byte count compactly ("4.0K", "2.0M", "1.5G").
std::string FormatSize(std::uint64_t bytes);

/// Formats a duration compactly ("5ms", "2m", "1.500s", "1500us"). The text
/// reads back through ParseDuration exactly.
std::string FormatDuration(SimTimeUs us);

/// Formats a fraction as a percentage ("80%").
std::string FormatPercent(double fraction);

}  // namespace daos
