#include "util/units.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <utility>

namespace daos {
namespace {

struct NumberSuffix {
  double value = 0.0;
  std::string_view suffix;
};

std::optional<NumberSuffix> SplitNumber(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.' ||
          (i == 0 && (text[i] == '-' || text[i] == '+')))) {
    ++i;
  }
  if (i == 0) return std::nullopt;
  const std::string num(text.substr(0, i));
  char* end = nullptr;
  const double v = std::strtod(num.c_str(), &end);
  if (end == num.c_str() || *end != '\0') return std::nullopt;
  return NumberSuffix{v, text.substr(i)};
}

// The double -> u64 cast is undefined past 2^64; reject instead.
std::optional<std::uint64_t> ToU64(double v) {
  if (!(v < 18446744073709551616.0)) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<std::uint64_t> ParseSize(std::string_view text) {
  const auto parts = SplitNumber(text);
  if (!parts || parts->value < 0) return std::nullopt;
  double mult = 1.0;
  const std::string_view s = parts->suffix;
  if (s.empty() || EqualsIgnoreCase(s, "b")) {
    mult = 1.0;
  } else if (EqualsIgnoreCase(s, "k") || EqualsIgnoreCase(s, "kb") ||
             EqualsIgnoreCase(s, "kib")) {
    mult = static_cast<double>(KiB);
  } else if (EqualsIgnoreCase(s, "m") || EqualsIgnoreCase(s, "mb") ||
             EqualsIgnoreCase(s, "mib")) {
    mult = static_cast<double>(MiB);
  } else if (EqualsIgnoreCase(s, "g") || EqualsIgnoreCase(s, "gb") ||
             EqualsIgnoreCase(s, "gib")) {
    mult = static_cast<double>(GiB);
  } else if (EqualsIgnoreCase(s, "t") || EqualsIgnoreCase(s, "tb") ||
             EqualsIgnoreCase(s, "tib")) {
    mult = static_cast<double>(GiB) * 1024.0;
  } else {
    return std::nullopt;
  }
  return ToU64(parts->value * mult);
}

std::optional<SimTimeUs> ParseDuration(std::string_view text) {
  const auto parts = SplitNumber(text);
  if (!parts || parts->value < 0) return std::nullopt;
  double mult = 0.0;
  const std::string_view s = parts->suffix;
  if (s.empty() || EqualsIgnoreCase(s, "s") || EqualsIgnoreCase(s, "sec")) {
    mult = static_cast<double>(kUsPerSec);
  } else if (EqualsIgnoreCase(s, "us")) {
    mult = 1.0;
  } else if (EqualsIgnoreCase(s, "ms")) {
    mult = static_cast<double>(kUsPerMs);
  } else if (EqualsIgnoreCase(s, "m") || EqualsIgnoreCase(s, "min")) {
    mult = static_cast<double>(kUsPerMin);
  } else if (EqualsIgnoreCase(s, "h")) {
    mult = static_cast<double>(kUsPerMin) * 60.0;
  } else {
    return std::nullopt;
  }
  return ToU64(parts->value * mult);
}

std::optional<double> ParsePercent(std::string_view text) {
  const auto parts = SplitNumber(text);
  if (!parts || parts->value < 0) return std::nullopt;
  if (parts->suffix.empty()) {
    return parts->value;  // already a fraction
  }
  if (parts->suffix == "%") return parts->value / 100.0;
  return std::nullopt;
}

std::string FormatSize(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= GiB) {
    std::snprintf(buf, sizeof buf, "%.1fG", static_cast<double>(bytes) / GiB);
  } else if (bytes >= MiB) {
    std::snprintf(buf, sizeof buf, "%.1fM", static_cast<double>(bytes) / MiB);
  } else if (bytes >= KiB) {
    std::snprintf(buf, sizeof buf, "%.1fK", static_cast<double>(bytes) / KiB);
  } else {
    std::snprintf(buf, sizeof buf, "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string FormatDuration(SimTimeUs us) {
  char buf[32];
  if (us >= kUsPerSec && us % kUsPerSec != 0) {
    // "1.250s" where it reads back exactly; "1.0004s" would print as
    // "1.000s", and "1.001s" parses one microsecond short.
    std::snprintf(buf, sizeof buf, "%.3fs",
                  static_cast<double>(us) / kUsPerSec);
    if (ParseDuration(buf) == us) return buf;
  }
  static constexpr std::pair<SimTimeUs, const char*> kUnits[] = {
      {kUsPerMin, "m"}, {kUsPerSec, "s"}, {kUsPerMs, "ms"}};
  SimTimeUs unit = 1;
  const char* suffix = "us";
  for (const auto& [u, s] : kUnits) {
    if (us >= u && us % u == 0) {
      unit = u;
      suffix = s;
      break;
    }
  }
  std::snprintf(buf, sizeof buf, "%llu%s",
                static_cast<unsigned long long>(us / unit), suffix);
  return buf;
}

std::string FormatPercent(double fraction) {
  char buf[32];
  const double pct = fraction * 100.0;
  if (std::abs(pct - std::round(pct)) < 1e-9) {
    std::snprintf(buf, sizeof buf, "%.0f%%", pct);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f%%", pct);
  }
  return buf;
}

}  // namespace daos
