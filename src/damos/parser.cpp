#include "damos/parser.hpp"

#include <optional>

#include "governor/policy.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace daos::damos {
namespace {

// Defensive cap: a scheme line is seven short tokens plus a handful of
// governor clauses; anything past this is garbage input (binary spew, a
// runaway echo) and is rejected before tokenization rather than ground
// through the number parsers.
constexpr std::size_t kMaxLineLength = 512;

std::optional<std::uint64_t> ParseSizeToken(std::string_view tok, bool is_min) {
  const std::string lower = ToLower(tok);
  if (lower == "min") return is_min ? 0 : 0;
  if (lower == "max") return kMaxU64;
  return ParseSize(tok);
}

std::optional<FreqBound> ParseFreqToken(std::string_view tok) {
  const std::string lower = ToLower(tok);
  if (lower == "min") return FreqBound::MinValue();
  if (lower == "max") return FreqBound::MaxValue();
  if (!tok.empty() && tok.back() == '%') {
    if (auto pct = ParsePercent(tok)) return FreqBound::Percent(*pct);
    return std::nullopt;
  }
  // Bare number: raw sample count per aggregation interval (Listing 3).
  const auto v = ParseFiniteDouble(tok);
  if (!v || *v < 0) return std::nullopt;
  return FreqBound::Samples(*v);
}

std::optional<SimTimeUs> ParseAgeToken(std::string_view tok, bool is_min) {
  const std::string lower = ToLower(tok);
  if (lower == "min") return is_min ? 0 : 0;
  if (lower == "max") return kMaxU64;
  return ParseDuration(tok);
}

}  // namespace

bool ParseAction(std::string_view token, damon::DamosAction* out) {
  const std::string t = ToLower(token);
  if (t == "pageout" || t == "page_out") {
    *out = damon::DamosAction::kPageout;
  } else if (t == "hugepage" || t == "thp") {
    *out = damon::DamosAction::kHugepage;
  } else if (t == "nohugepage" || t == "nothp") {
    *out = damon::DamosAction::kNohugepage;
  } else if (t == "willneed") {
    *out = damon::DamosAction::kWillneed;
  } else if (t == "cold") {
    *out = damon::DamosAction::kCold;
  } else if (t == "stat") {
    *out = damon::DamosAction::kStat;
  } else if (t == "migrate_hot") {
    *out = damon::DamosAction::kMigrateHot;
  } else if (t == "migrate_cold") {
    *out = damon::DamosAction::kMigrateCold;
  } else {
    return false;
  }
  return true;
}

ParseResult ParseSchemeLine(std::string_view line) {
  ParseResult result;
  if (line.size() > kMaxLineLength) {
    result.errors.push_back(
        {1, "line too long (" + std::to_string(line.size()) + " > " +
                std::to_string(kMaxLineLength) + " characters)"});
    return result;
  }
  const auto tokens = SplitWhitespace(StripComment(line));
  if (tokens.size() < 7) {
    result.errors.push_back(
        {1, "expected at least 7 fields (min_size max_size min_freq "
            "max_freq min_age max_age action [governor clauses]), got " +
                std::to_string(tokens.size())});
    return result;
  }

  SchemeBounds b;
  if (auto v = ParseSizeToken(tokens[0], true)) {
    b.min_size = *v;
  } else {
    result.errors.push_back({1, "bad min_size '" + std::string(tokens[0]) + "'"});
  }
  if (auto v = ParseSizeToken(tokens[1], false)) {
    b.max_size = *v;
  } else {
    result.errors.push_back({1, "bad max_size '" + std::string(tokens[1]) + "'"});
  }
  if (auto v = ParseFreqToken(tokens[2])) {
    b.min_freq = *v;
  } else {
    result.errors.push_back({1, "bad min_freq '" + std::string(tokens[2]) + "'"});
  }
  if (auto v = ParseFreqToken(tokens[3])) {
    b.max_freq = *v;
  } else {
    result.errors.push_back({1, "bad max_freq '" + std::string(tokens[3]) + "'"});
  }
  if (auto v = ParseAgeToken(tokens[4], true)) {
    b.min_age = *v;
  } else {
    result.errors.push_back({1, "bad min_age '" + std::string(tokens[4]) + "'"});
  }
  if (auto v = ParseAgeToken(tokens[5], false)) {
    b.max_age = *v;
  } else {
    result.errors.push_back({1, "bad max_age '" + std::string(tokens[5]) + "'"});
  }
  if (!ParseAction(tokens[6], &b.action)) {
    result.errors.push_back({1, "unknown action '" + std::string(tokens[6]) + "'"});
  }

  // Optional governor clauses after the action. All-or-nothing like the
  // base fields: any bad clause rejects the whole line.
  governor::GovernorPolicy policy;
  for (std::size_t i = 7; i < tokens.size(); ++i) {
    std::string clause_error;
    if (!governor::ParsePolicyClause(tokens[i], &policy, &clause_error)) {
      result.errors.push_back({1, std::move(clause_error)});
    }
  }
  if (result.errors.empty()) {
    std::string policy_error;
    if (!governor::ValidatePolicy(policy, &policy_error)) {
      result.errors.push_back({1, std::move(policy_error)});
    }
  }
  if (b.min_size != kMaxU64 && b.max_size != kMaxU64 &&
      b.min_size > b.max_size) {
    result.errors.push_back({1, "min_size exceeds max_size"});
  }
  if (b.min_age != kMaxU64 && b.max_age != kMaxU64 && b.min_age > b.max_age) {
    result.errors.push_back({1, "min_age exceeds max_age"});
  }
  // Frequency bounds are only directly comparable in the same unit; a
  // percent/samples mix depends on the monitoring attrs and is legal.
  if (b.min_freq.unit == b.max_freq.unit &&
      b.min_freq.value > b.max_freq.value) {
    result.errors.push_back({1, "min_freq exceeds max_freq"});
  }

  if (result.errors.empty()) {
    Scheme scheme(b);
    scheme.policy() = policy;
    result.schemes.push_back(std::move(scheme));
  }
  return result;
}

ParseResult ParseSchemes(std::string_view text) {
  ParseResult result;
  LineCursor lines(text);
  std::string_view raw;
  while (lines.Next(&raw)) {
    const int line_no = lines.line_no();
    if (raw.size() > kMaxLineLength) {
      result.errors.push_back(
          {line_no, "line too long (" + std::to_string(raw.size()) + " > " +
                        std::to_string(kMaxLineLength) + " characters)"});
      continue;
    }
    const std::string_view line = TrimWhitespace(StripComment(raw));
    if (line.empty()) continue;
    ParseResult one = ParseSchemeLine(line);
    for (ParseError& e : one.errors) {
      e.line_number = line_no;
      result.errors.push_back(std::move(e));
    }
    for (Scheme& s : one.schemes) result.schemes.push_back(std::move(s));
  }
  return result;
}

}  // namespace daos::damos
