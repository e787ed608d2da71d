#include "sim/tier.hpp"

#include <utility>

#include "util/strings.hpp"
#include "util/units.hpp"

namespace daos::sim {
namespace {

// Keep geometries small: real tiered hosts have 2-4 tiers; 8 leaves slack
// for exotic setups while bounding per-page tier indices comfortably inside
// Page's 16-bit field.
constexpr std::size_t kMaxLineLength = 512;

std::string LineError(int line_no, const std::string& what) {
  return "tier " + daos::LineError(line_no, what);
}

/// FormatSize's one decimal place where it reads back exactly ("64.0M"),
/// else the largest unit that divides `bytes`, else plain bytes.
std::string ExactSize(std::uint64_t bytes) {
  std::string text = FormatSize(bytes);
  if (ParseSize(text) == bytes) return text;
  static constexpr std::pair<std::uint64_t, char> kUnits[] = {
      {GiB, 'G'}, {MiB, 'M'}, {KiB, 'K'}};
  for (const auto& [unit, suffix] : kUnits) {
    if (bytes % unit == 0) return std::to_string(bytes / unit) + suffix;
  }
  return std::to_string(bytes);
}

}  // namespace

std::string_view TierKindName(TierKind kind) {
  switch (kind) {
    case TierKind::kDram:
      return "dram";
    case TierKind::kCxl:
      return "cxl";
    case TierKind::kZram:
      return "zram";
    case TierKind::kFile:
      return "file";
  }
  return "?";
}

std::optional<TierKind> ParseTierKind(std::string_view text) {
  if (text == "dram") return TierKind::kDram;
  if (text == "cxl") return TierKind::kCxl;
  if (text == "zram") return TierKind::kZram;
  if (text == "file") return TierKind::kFile;
  return std::nullopt;
}

std::string TierSpec::ToText() const {
  std::string out(TierKindName(kind));
  out += ' ';
  out += ExactSize(capacity_bytes);
  if (access_extra_us != 0.0) {
    out += " lat=";
    out += ExactDouble(access_extra_us);
  }
  if (migrate_bw_bytes_per_s != 0) {
    out += " bw=";
    out += ExactSize(migrate_bw_bytes_per_s);
  }
  return out;
}

std::string TierGeometry::ToText() const {
  std::string out;
  for (const TierSpec& t : tiers) {
    out += t.ToText();
    out += '\n';
  }
  return out;
}

bool ParseTierGeometry(std::string_view text, TierGeometry* out,
                       std::string* error) {
  TierGeometry geo;
  LineCursor lines(text);
  std::string_view line;
  while (lines.Next(&line)) {
    const int line_no = lines.line_no();
    if (line.size() > kMaxLineLength) {
      if (error != nullptr) *error = LineError(line_no, "line too long");
      return false;
    }
    const auto tokens = SplitWhitespace(StripComment(line));
    if (tokens.empty()) continue;
    if (tokens.size() < 2) {
      if (error != nullptr) {
        *error = LineError(line_no, "expected '<kind> <capacity> [lat=] [bw=]'");
      }
      return false;
    }
    TierSpec spec;
    const auto kind = ParseTierKind(tokens[0]);
    if (!kind) {
      if (error != nullptr) {
        *error = LineError(line_no, "unknown tier kind '" +
                                        std::string(tokens[0]) +
                                        "' (want dram|cxl|zram|file)");
      }
      return false;
    }
    spec.kind = *kind;
    const auto cap = ParseSize(tokens[1]);
    if (!cap || *cap == 0) {
      if (error != nullptr) {
        *error = LineError(line_no,
                           "bad capacity '" + std::string(tokens[1]) + "'");
      }
      return false;
    }
    spec.capacity_bytes = *cap;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      const std::string_view tok = tokens[i];
      if (tok.substr(0, 4) == "lat=") {
        const auto lat = ParseFiniteDouble(tok.substr(4));
        if (!lat || *lat < 0.0) {
          if (error != nullptr) {
            *error = LineError(
                line_no, "bad latency '" + std::string(tok.substr(4)) +
                             "' (want non-negative microseconds)");
          }
          return false;
        }
        spec.access_extra_us = *lat;
      } else if (tok.substr(0, 3) == "bw=") {
        const std::string_view val = tok.substr(3);
        // ParseSize rejects negatives wholesale; name the failure mode so
        // "bw=-1G" reads as what it is, not a generic syntax error.
        if (!val.empty() && val[0] == '-') {
          if (error != nullptr) {
            *error = LineError(line_no, "negative bandwidth '" +
                                            std::string(val) + "'");
          }
          return false;
        }
        const auto bw = ParseSize(val);
        if (!bw) {
          if (error != nullptr) {
            *error =
                LineError(line_no, "bad bandwidth '" + std::string(val) + "'");
          }
          return false;
        }
        spec.migrate_bw_bytes_per_s = *bw;
      } else {
        if (error != nullptr) {
          *error = LineError(line_no,
                             "unknown clause '" + std::string(tok) + "'");
        }
        return false;
      }
    }
    if (geo.tiers.empty() && spec.kind != TierKind::kDram) {
      if (error != nullptr) {
        *error = LineError(line_no, "first tier must be dram");
      }
      return false;
    }
    if (geo.tiers.size() == kMaxTiers) {
      if (error != nullptr) {
        *error = LineError(line_no, "too many tiers (max 8)");
      }
      return false;
    }
    geo.tiers.push_back(spec);
  }
  if (geo.tiers.empty()) {
    if (error != nullptr) *error = "tier geometry is empty";
    return false;
  }
  *out = std::move(geo);
  return true;
}

}  // namespace daos::sim
