#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace daos {

std::vector<std::string_view> SplitWhitespace(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    std::size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
  return out;
}

std::vector<std::string_view> SplitChar(std::string_view text, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view text) {
  std::size_t b = 0;
  while (b < text.size() && std::isspace(static_cast<unsigned char>(text[b])))
    ++b;
  std::size_t e = text.size();
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string_view StripComment(std::string_view line) {
  const std::size_t pos = line.find('#');
  if (pos == std::string_view::npos) return line;
  return line.substr(0, pos);
}

std::string ToLower(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text)
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::optional<std::uint64_t> ParseU64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

std::optional<std::uint32_t> ParseU32(std::string_view text) {
  const auto v = ParseU64(text);
  if (!v || *v > UINT32_MAX) return std::nullopt;
  return static_cast<std::uint32_t>(*v);
}

std::optional<double> ParseFiniteDouble(std::string_view text) {
  if (text.empty()) return std::nullopt;
  const std::string buf(text);  // strtod needs NUL termination
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<double> ParseProbability(std::string_view text) {
  const auto v = ParseFiniteDouble(text);
  if (!v || *v < 0.0 || *v > 1.0) return std::nullopt;
  return v;
}

std::string ExactDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  if (ParseFiniteDouble(buf) == v) return buf;
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  va_list retry;
  va_copy(retry, args);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0 && static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
  } else if (n > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(n) + 1);  // room for the NUL
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt,
                   retry);
    out.resize(old + static_cast<std::size_t>(n));
  }
  va_end(retry);
}

bool LineCursor::Next(std::string_view* line) {
  if (done_) return false;
  ++line_no_;
  if (pos_ >= text_.size()) {
    done_ = true;
    return false;
  }
  std::size_t end = text_.find_first_of(separators_, pos_);
  if (end == std::string_view::npos) end = text_.size();
  *line = text_.substr(pos_, end - pos_);
  pos_ = end + 1;
  return true;
}

std::string LineError(int line_no, std::string_view message) {
  std::string out = "line " + std::to_string(line_no) + ": ";
  out += message;
  return out;
}

}  // namespace daos
