// String utilities shared across modules: tokenizing, trimming, case
// folding, and the strict number parsers and line cursor every text
// grammar (schemes, tiers, faults, campaigns, checkpoints, commit bundles,
// rollout specs, quarantine, trace headers, dbgfs writes) is built on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace daos {

/// Splits on any run of whitespace; no empty tokens.
std::vector<std::string_view> SplitWhitespace(std::string_view text);

/// Splits on a single character delimiter; keeps empty fields.
std::vector<std::string_view> SplitChar(std::string_view text, char delim);

std::string_view TrimWhitespace(std::string_view text);

/// Strips a trailing "# comment" (first unescaped '#') from a line.
std::string_view StripComment(std::string_view line);

std::string ToLower(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

// --- strict number parsers --------------------------------------------------
// Each accepts the whole token or nothing: no surrounding whitespace (the
// doubles excepted, see below), no trailing junk, no silent wraparound.

/// Decimal unsigned: one or more ASCII digits, no sign, no overflow.
std::optional<std::uint64_t> ParseU64(std::string_view text);
/// ParseU64 limited to values that fit in 32 bits.
std::optional<std::uint32_t> ParseU32(std::string_view text);

/// A finite double in strtod syntax over the whole token (so "%a" hex-floats
/// round-trip exactly). Rejects NaN, infinities and out-of-range values.
/// Like strtod it skips leading whitespace.
std::optional<double> ParseFiniteDouble(std::string_view text);
/// ParseFiniteDouble limited to [0, 1].
std::optional<double> ParseProbability(std::string_view text);
/// "%g" where it reads back exactly through ParseFiniteDouble ("0.6"), else
/// the shortest text that does.
std::string ExactDouble(double v);

/// Assigns a parsed value to `field` when parsing succeeded and returns
/// whether it did, so a grammar can parse straight into a struct field.
template <typename T>
bool StoreParsed(const std::optional<T>& parsed, T& field) {
  if (parsed) field = *parsed;
  return parsed.has_value();
}

/// Appends printf-formatted text to `out`. One vsnprintf into a stack
/// buffer in the common case; longer output is formatted straight into
/// `out`, never truncated.
void AppendF(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

// --- line-oriented grammars -------------------------------------------------

/// Walks `text` one line at a time. A line ends at any character of
/// `separators` or at the end of input; a final separator does not open an
/// empty last line. Lines are numbered from 1. Once Next() returns false,
/// line_no() is one past the last line: where "unexpected end of input"
/// errors point.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text,
                      std::string_view separators = "\n")
      : text_(text), separators_(separators) {}

  /// Stores the next raw line (separator excluded) in `line`; false at the
  /// end of input.
  bool Next(std::string_view* line);
  int line_no() const noexcept { return line_no_; }

 private:
  std::string_view text_;
  std::string_view separators_;
  std::size_t pos_ = 0;
  int line_no_ = 0;
  bool done_ = false;
};

/// "line <line_no>: <message>" — the error prefix every grammar shares.
std::string LineError(int line_no, std::string_view message);

}  // namespace daos
