#include "trace/ingest.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/strings.hpp"

namespace daos::trace {
namespace {

// Clusters of touched pages separated by more than this gap become
// separate synthesized VMAs (the stack/mmap/heap gaps of a real layout).
constexpr std::uint64_t kVmaGapBytes = 32 * MiB;
// Per-operation size caps: a single load/store crossing a gigabyte or a
// mapping beyond 64 GiB is garbage input, not a trace.
constexpr std::uint64_t kMaxAccessBytes = 1 * GiB;
constexpr std::uint64_t kMaxMapBytes = 64ULL * GiB;
constexpr Addr kMaxAddr = 1ULL << 60;

std::nullopt_t Fail(IngestError* error, int line, std::string msg) {
  if (error != nullptr) {
    error->line_number = line;
    error->message = std::move(msg);
  }
  return std::nullopt;
}

/// Touched [first, last) page intervals, the input of SynthesizeLayout.
using Spans = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

bool SkippableLine(std::string_view line) {
  const std::string_view t = TrimWhitespace(line);
  return t.empty() || t[0] == '#' || StartsWith(t, "==") || StartsWith(t, "--");
}

/// Strict unsigned parse of one field, surrounding whitespace ignored.
/// Base 10 takes decimal digits; base 16 takes hex digits with an optional
/// 0x prefix (Lackey addresses); base 0 takes 0x-prefixed hex or plain
/// decimal (CSV addresses). No sign, no inner whitespace, no overflow.
bool ParseU64Radix(std::string_view token, int base, std::uint64_t& out) {
  token = TrimWhitespace(token);
  if (base != 10 && token.size() > 2 && token[0] == '0' &&
      (token[1] == 'x' || token[1] == 'X')) {
    token.remove_prefix(2);
    base = 16;
  } else if (base == 0) {
    base = 10;
  }
  if (token.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : token) {
    unsigned digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<unsigned>(c - '0');
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = static_cast<unsigned>(c - 'a' + 10);
    } else if (base == 16 && c >= 'A' && c <= 'F') {
      digit = static_cast<unsigned>(c - 'A' + 10);
    } else {
      return false;
    }
    const auto radix = static_cast<std::uint64_t>(base);
    if (v > (UINT64_MAX - digit) / radix) return false;
    v = v * radix + digit;
  }
  out = v;
  return true;
}

/// Touched-page intervals -> kMap events at t=0, huge-page aligned, with
/// >32 MiB gaps starting a new VMA. Returns the events and total bytes.
std::vector<TraceEvent> SynthesizeLayout(Spans spans,
                                         std::uint64_t& data_bytes) {
  std::vector<TraceEvent> maps;
  data_bytes = 0;
  if (spans.empty()) return maps;
  std::sort(spans.begin(), spans.end());
  constexpr std::uint64_t kGapPages = kVmaGapBytes / kPageSize;
  constexpr std::uint64_t kBlockPages = kPagesPerHuge;
  std::uint64_t lo = spans.front().first;
  std::uint64_t hi = spans.front().second;
  int seg = 0;
  auto emit = [&](std::uint64_t first, std::uint64_t last) {
    TraceEvent ev;
    ev.op = TraceOp::kMap;
    ev.page = first / kBlockPages * kBlockPages;
    ev.pages = (last + kBlockPages - 1) / kBlockPages * kBlockPages - ev.page;
    ev.name = "seg" + std::to_string(seg++);
    data_bytes += ev.pages * kPageSize;
    maps.push_back(std::move(ev));
  };
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].first > hi + kGapPages) {
      emit(lo, hi);
      lo = spans[i].first;
      hi = spans[i].second;
    } else {
      hi = std::max(hi, spans[i].second);
    }
  }
  emit(lo, hi);
  return maps;
}

/// Makes `ev` touch the pages of [addr, addr + size) and records them.
void SetTouch(TraceEvent& ev, Addr addr, std::uint64_t size, Spans& spans) {
  ev.page = PageOf(addr);
  const std::uint64_t last_page = PageOf(addr + size - 1);
  ev.op = last_page == ev.page ? TraceOp::kTouchPage : TraceOp::kTouchRange;
  ev.pages = last_page - ev.page + 1;
  spans.emplace_back(ev.page, last_page + 1);
}

/// The trace of `layout`'s map events followed by `events`.
Trace Assemble(std::vector<TraceEvent> layout, std::vector<TraceEvent> events,
               std::string_view name, const IngestOptions& options,
               std::uint64_t data_bytes) {
  Trace trace;
  trace.events = std::move(layout);
  trace.events.insert(trace.events.end(),
                      std::make_move_iterator(events.begin()),
                      std::make_move_iterator(events.end()));
  TraceMeta& meta = trace.meta;
  meta.name = std::string(name);
  meta.quantum_us = options.quantum_us;
  meta.data_bytes = data_bytes;
  // The replay process works for the trace's duration plus one quantum —
  // an ingested trace says nothing about CPU behaviour, so the run ends
  // when the events do. THP gain is unknown: claim none.
  meta.runtime_s =
      static_cast<double>(trace.events.back().at + options.quantum_us) /
      static_cast<double>(kUsPerSec);
  meta.mem_boundness = 0.5;
  meta.thp_gain = 0.0;
  meta.zram_ratio = 3.0;
  return trace;
}

}  // namespace

TraceTextFormat DetectTraceTextFormat(std::string_view text) {
  LineCursor lines(text);
  std::string_view line;
  while (lines.Next(&line)) {
    if (SkippableLine(line)) continue;
    const std::string_view t = TrimWhitespace(line);
    if (t.find(',') != std::string_view::npos &&
        SplitChar(t, ',').size() >= 4) {
      return TraceTextFormat::kCsv;
    }
    if (t.size() >= 2 &&
        (t[0] == 'I' || t[0] == 'L' || t[0] == 'S' || t[0] == 'M') &&
        (t[1] == ' ' || t[1] == '\t')) {
      return TraceTextFormat::kLackey;
    }
    return TraceTextFormat::kUnknown;
  }
  return TraceTextFormat::kUnknown;
}

std::optional<Trace> IngestLackey(std::string_view text, std::string_view name,
                                  const IngestOptions& options,
                                  IngestError* error) {
  std::vector<TraceEvent> touches;
  Spans spans;
  const std::uint64_t per_quantum = std::max<std::uint64_t>(
      1, options.ops_per_quantum);
  std::uint64_t op_index = 0;
  LineCursor lines(text);
  std::string_view raw;
  while (lines.Next(&raw)) {
    const int line_no = lines.line_no();
    if (SkippableLine(raw)) continue;
    const std::string_view line = TrimWhitespace(raw);
    const char op = line[0];
    if (op != 'I' && op != 'L' && op != 'S' && op != 'M')
      return Fail(error, line_no, "unknown op (expected I, L, S or M)");
    const std::string_view rest = TrimWhitespace(line.substr(1));
    const std::size_t comma = rest.find(',');
    if (comma == std::string_view::npos)
      return Fail(error, line_no, "missing \",size\" after address");
    Addr addr = 0;
    std::uint64_t size = 0;
    if (!ParseU64Radix(rest.substr(0, comma), 16, addr) || addr > kMaxAddr)
      return Fail(error, line_no, "bad hex address");
    if (!ParseU64Radix(rest.substr(comma + 1), 10, size) || size == 0 ||
        size > kMaxAccessBytes)
      return Fail(error, line_no, "bad access size");
    if (op == 'I') continue;  // instruction fetch: not a data access
    TraceEvent ev;
    ev.at = static_cast<SimTimeUs>(op_index / per_quantum) * options.quantum_us;
    ev.write = op == 'S' || op == 'M';
    SetTouch(ev, addr, size, spans);
    touches.push_back(std::move(ev));
    ++op_index;
  }
  if (touches.empty())
    return Fail(error, lines.line_no(), "no data accesses in input");
  std::uint64_t data_bytes = 0;
  std::vector<TraceEvent> layout =
      SynthesizeLayout(std::move(spans), data_bytes);
  return Assemble(std::move(layout), std::move(touches), name, options,
                  data_bytes);
}

std::optional<Trace> IngestCsv(std::string_view text, std::string_view name,
                               const IngestOptions& options,
                               IngestError* error) {
  std::vector<TraceEvent> events;
  Spans spans;
  bool has_explicit_map = false;
  std::uint64_t explicit_bytes = 0;
  SimTimeUs last_at = 0;
  const SimTimeUs max_at =
      kMaxIngestEndUs - std::min(options.quantum_us, kMaxIngestEndUs);
  bool saw_data = false;
  LineCursor lines(text);
  std::string_view raw;
  while (lines.Next(&raw)) {
    const int line_no = lines.line_no();
    if (SkippableLine(raw)) continue;
    const std::string_view line = TrimWhitespace(raw);
    if (!saw_data && StartsWith(line, "time_us")) continue;  // header row
    const std::vector<std::string_view> fields = SplitChar(line, ',');
    if (fields.size() != 4)
      return Fail(error, line_no, "expected 4 fields: time_us,op,addr,size");
    const auto at = ParseU64(TrimWhitespace(fields[0]));
    if (!at) return Fail(error, line_no, "bad time_us");
    if (static_cast<SimTimeUs>(*at) > max_at)
      return Fail(error, line_no,
                  "time_us past " + std::to_string(max_at) +
                      " (2^53 us less one quantum)");
    if (static_cast<SimTimeUs>(*at) < last_at)
      return Fail(error, line_no, "time_us went backwards");
    const std::string op = ToLower(TrimWhitespace(fields[1]));
    Addr addr = 0;
    if (!ParseU64Radix(fields[2], 0, addr) || addr > kMaxAddr)
      return Fail(error, line_no, "bad address");
    std::uint64_t size = 0;
    if (!ParseU64Radix(fields[3], 10, size))
      return Fail(error, line_no, "bad size");
    TraceEvent ev;
    ev.at = static_cast<SimTimeUs>(*at);
    ev.page = PageOf(addr);
    if (op == "r" || op == "w") {
      if (size == 0 || size > kMaxAccessBytes)
        return Fail(error, line_no, "bad access size");
      ev.write = op == "w";
      SetTouch(ev, addr, size, spans);
    } else if (op == "map") {
      if (size == 0 || size > kMaxMapBytes)
        return Fail(error, line_no, "bad map size");
      ev.op = TraceOp::kMap;
      ev.pages = PageOf(addr + size - 1) - ev.page + 1;
      ev.name = "csv" + std::to_string(line_no);
      has_explicit_map = true;
      explicit_bytes += ev.pages * kPageSize;
    } else if (op == "unmap") {
      ev.op = TraceOp::kUnmap;
      ev.pages = 1;
    } else {
      return Fail(error, line_no, "unknown op \"" + op + "\"");
    }
    last_at = ev.at;
    saw_data = true;
    events.push_back(std::move(ev));
  }
  if (events.empty())
    return Fail(error, lines.line_no(), "no events in input");
  std::uint64_t data_bytes = explicit_bytes;
  std::vector<TraceEvent> layout;
  // No map rows: synthesize the layout from the touched clusters, same as
  // lackey input.
  if (!has_explicit_map)
    layout = SynthesizeLayout(std::move(spans), data_bytes);
  return Assemble(std::move(layout), std::move(events), name, options,
                  data_bytes);
}

std::optional<Trace> IngestText(std::string_view text, std::string_view name,
                                const IngestOptions& options,
                                IngestError* error) {
  switch (DetectTraceTextFormat(text)) {
    case TraceTextFormat::kLackey:
      return IngestLackey(text, name, options, error);
    case TraceTextFormat::kCsv:
      return IngestCsv(text, name, options, error);
    case TraceTextFormat::kUnknown:
      break;
  }
  return Fail(error, 1, "unrecognized trace format (expected lackey or CSV)");
}

}  // namespace daos::trace
