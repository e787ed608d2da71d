#include "trace/format.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>

#include "util/file.hpp"
#include "util/strings.hpp"

namespace daos::trace {
namespace {

// Sanity bounds on decoded fields: a hostile trace must not be able to
// request absurd allocations or overflow page<<shift arithmetic. The page
// ceiling is shift-aware so that (page + pages) << page_shift always fits
// in 63 bits; 2^33 pages (32 TiB at 4 KiB) bounds any single mapping or
// sweep.
constexpr std::uint64_t kMaxPagesPerEvent = 1ULL << 33;
constexpr std::uint64_t kMaxNameLen = 255;
constexpr std::uint64_t kMaxChunkPayload = 1ULL << 26;  // 64 MiB

void AppendU32Le(std::string& out, std::uint32_t v) {
  char b[4] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
               static_cast<char>((v >> 16) & 0xff),
               static_cast<char>((v >> 24) & 0xff)};
  out.append(b, 4);
}

std::uint32_t ReadU32Le(std::string_view in, std::size_t pos) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(in[pos])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[pos + 1]))
             << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[pos + 2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[pos + 3]))
             << 24;
}

bool Fail(TraceError* error, std::size_t offset, int line, std::string msg) {
  if (error != nullptr) {
    error->offset = offset;
    error->line_number = line;
    error->message = std::move(msg);
  }
  return false;
}

}  // namespace

std::string TraceError::Format() const {
  std::string out;
  if (line_number > 0) {
    AppendF(out, "line %d: ", line_number);
  } else {
    AppendF(out, "offset %zu: ", offset);
  }
  out += message;
  return out;
}

void AppendVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool DecodeVarint(std::string_view in, std::size_t& pos, std::uint64_t& out) {
  out = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= in.size()) return false;
    const auto byte = static_cast<std::uint8_t>(in[pos++]);
    out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical 10th bytes that would shift bits off the top.
      if (shift == 63 && byte > 1) return false;
      return true;
    }
  }
  return false;  // continuation bit set on the 10th byte
}

std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t UnZigZag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

void EncodeEvent(std::string& out, const TraceEvent& event, SimTimeUs& prev_at,
                 std::uint64_t& prev_page) {
  const std::uint8_t op_byte = static_cast<std::uint8_t>(event.op) |
                               (event.write ? 0x04 : 0x00);
  out.push_back(static_cast<char>(op_byte));
  AppendVarint(out, event.at - prev_at);
  AppendVarint(out, ZigZag(static_cast<std::int64_t>(event.page) -
                           static_cast<std::int64_t>(prev_page)));
  if (event.op == TraceOp::kTouchRange || event.op == TraceOp::kMap) {
    AppendVarint(out, event.pages);
  }
  if (event.op == TraceOp::kMap) {
    AppendVarint(out, event.name.size());
    out.append(event.name);
  }
  prev_at = event.at;
  prev_page = event.page;
}

std::uint32_t Crc32(std::string_view data) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string SerializeHeader(const TraceMeta& meta, std::uint64_t events,
                            std::uint64_t chunks) {
  std::string out;
  out += kTraceMagic;
  out += '\n';
  out += "name ";
  out += meta.name;  // verbatim: "%s" would stop at an embedded NUL
  out += '\n';
  AppendF(out, "page_shift %" PRIu64 "\n", meta.page_shift);
  AppendF(out, "quantum_us %" PRIu64 "\n",
          static_cast<std::uint64_t>(meta.quantum_us));
  AppendF(out, "data_bytes %" PRIu64 "\n", meta.data_bytes);
  AppendF(out, "runtime_s %a\n", meta.runtime_s);
  AppendF(out, "mem_boundness %a\n", meta.mem_boundness);
  AppendF(out, "thp_gain %a\n", meta.thp_gain);
  AppendF(out, "zram_ratio %a\n", meta.zram_ratio);
  AppendF(out, "events %" PRIu64 "\n", events);
  AppendF(out, "chunks %" PRIu64 "\n", chunks);
  out += "body\n";
  return out;
}

void AppendChunk(std::string& out, std::string_view payload,
                 std::uint64_t records) {
  AppendU32Le(out, static_cast<std::uint32_t>(payload.size()));
  AppendU32Le(out, static_cast<std::uint32_t>(records));
  AppendU32Le(out, Crc32(payload));
  out += payload;
}

std::string SerializeTrace(const Trace& trace, std::size_t chunk_records) {
  if (chunk_records == 0) chunk_records = kChunkRecords;
  const std::uint64_t nchunks =
      (trace.events.size() + chunk_records - 1) / chunk_records;

  std::string out = SerializeHeader(trace.meta, trace.events.size(), nchunks);
  std::string payload;
  for (std::size_t base = 0; base < trace.events.size();
       base += chunk_records) {
    const std::size_t count =
        std::min(chunk_records, trace.events.size() - base);
    payload.clear();
    SimTimeUs prev_at = 0;
    std::uint64_t prev_page = 0;
    for (std::size_t i = 0; i < count; ++i) {
      EncodeEvent(payload, trace.events[base + i], prev_at, prev_page);
    }
    AppendChunk(out, payload, count);
  }
  return out;
}

std::optional<Trace> ParseTrace(std::string_view text, TraceError* error) {
  Trace trace;
  std::size_t pos = 0;
  int line_no = 0;
  std::uint64_t declared_events = 0;
  std::uint64_t declared_chunks = 0;
  bool saw_body = false;

  // --- header: one key per line, fixed order not required, `body` ends it.
  bool have[8] = {};
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      Fail(error, pos, line_no + 1, "unterminated header line");
      return std::nullopt;
    }
    const std::string_view line = text.substr(pos, eol - pos);
    const std::size_t line_start = pos;
    pos = eol + 1;
    ++line_no;

    if (line_no == 1) {
      if (line != kTraceMagic) {
        Fail(error, line_start, 1, "bad magic: expected \"daos-trace v1\"");
        return std::nullopt;
      }
      continue;
    }
    if (line == "body") {
      saw_body = true;
      break;
    }
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      Fail(error, line_start, line_no, "malformed header line");
      return std::nullopt;
    }
    const std::string_view key = line.substr(0, space);
    const std::string_view val = line.substr(space + 1);
    bool ok = true;
    if (key == "name") {
      trace.meta.name = std::string(val);
      have[0] = true;
    } else if (key == "page_shift") {
      ok = StoreParsed(ParseU64(val), trace.meta.page_shift) &&
           trace.meta.page_shift >= 10 && trace.meta.page_shift <= 20;
      have[1] = true;
    } else if (key == "quantum_us") {
      std::uint64_t q = 0;
      ok = StoreParsed(ParseU64(val), q) && q > 0;
      trace.meta.quantum_us = static_cast<SimTimeUs>(q);
      have[2] = true;
    } else if (key == "data_bytes") {
      ok = StoreParsed(ParseU64(val), trace.meta.data_bytes);
      have[3] = true;
    } else if (key == "runtime_s") {
      ok = StoreParsed(ParseFiniteDouble(val), trace.meta.runtime_s) &&
           trace.meta.runtime_s >= 0;
      have[4] = true;
    } else if (key == "mem_boundness") {
      ok = StoreParsed(ParseFiniteDouble(val), trace.meta.mem_boundness);
      have[5] = true;
    } else if (key == "thp_gain") {
      ok = StoreParsed(ParseFiniteDouble(val), trace.meta.thp_gain);
    } else if (key == "zram_ratio") {
      ok = StoreParsed(ParseFiniteDouble(val), trace.meta.zram_ratio) &&
           trace.meta.zram_ratio > 0;
    } else if (key == "events") {
      ok = StoreParsed(ParseU64(val), declared_events);
      have[6] = true;
    } else if (key == "chunks") {
      ok = StoreParsed(ParseU64(val), declared_chunks);
      have[7] = true;
    } else {
      Fail(error, line_start, line_no,
           "unknown header key \"" + std::string(key) + "\"");
      return std::nullopt;
    }
    if (!ok) {
      Fail(error, line_start, line_no,
           "bad value for \"" + std::string(key) + "\"");
      return std::nullopt;
    }
  }
  if (!saw_body) {
    Fail(error, pos, line_no, "missing \"body\" line");
    return std::nullopt;
  }
  for (const bool h : have) {
    if (!h) {
      Fail(error, 0, line_no, "header missing a required key");
      return std::nullopt;
    }
  }

  // --- body: declared_chunks framed chunks, delta state reset per chunk.
  // Every record takes at least 3 bytes (op byte and two varints), so the
  // body, not the header's claim, bounds the reservation.
  trace.events.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(declared_events, (text.size() - pos) / 3)));
  const std::uint64_t max_page = 1ULL << (62 - trace.meta.page_shift);
  SimTimeUs last_at = 0;
  for (std::uint64_t chunk = 0; chunk < declared_chunks; ++chunk) {
    const std::string chunk_tag = "chunk " + std::to_string(chunk);
    if (text.size() - pos < 12) {
      Fail(error, pos, 0, chunk_tag + ": truncated chunk frame");
      return std::nullopt;
    }
    const std::uint32_t payload_bytes = ReadU32Le(text, pos);
    const std::uint32_t record_count = ReadU32Le(text, pos + 4);
    const std::uint32_t crc = ReadU32Le(text, pos + 8);
    pos += 12;
    if (payload_bytes > kMaxChunkPayload) {
      Fail(error, pos - 12, 0, chunk_tag + ": payload size too large");
      return std::nullopt;
    }
    if (text.size() - pos < payload_bytes) {
      Fail(error, pos, 0, chunk_tag + ": truncated chunk payload");
      return std::nullopt;
    }
    const std::string_view payload = text.substr(pos, payload_bytes);
    if (Crc32(payload) != crc) {
      Fail(error, pos, 0, chunk_tag + ": crc mismatch");
      return std::nullopt;
    }
    std::size_t p = 0;
    SimTimeUs prev_at = 0;
    std::uint64_t prev_page = 0;
    for (std::uint32_t r = 0; r < record_count; ++r) {
      const std::size_t record_off = pos + p;
      if (p >= payload.size()) {
        Fail(error, record_off, 0, chunk_tag + ": truncated record");
        return std::nullopt;
      }
      const auto op_byte = static_cast<std::uint8_t>(payload[p++]);
      if ((op_byte & ~0x07u) != 0) {
        Fail(error, record_off, 0, chunk_tag + ": bad op byte");
        return std::nullopt;
      }
      TraceEvent ev;
      ev.op = static_cast<TraceOp>(op_byte & 0x03);
      ev.write = (op_byte & 0x04) != 0;
      std::uint64_t dt = 0;
      std::uint64_t zz = 0;
      if (!DecodeVarint(payload, p, dt) || !DecodeVarint(payload, p, zz)) {
        Fail(error, record_off, 0, chunk_tag + ": bad varint");
        return std::nullopt;
      }
      ev.at = prev_at + static_cast<SimTimeUs>(dt);
      const std::int64_t page =
          static_cast<std::int64_t>(prev_page) + UnZigZag(zz);
      if (page < 0 || static_cast<std::uint64_t>(page) > max_page) {
        Fail(error, record_off, 0, chunk_tag + ": page number out of range");
        return std::nullopt;
      }
      ev.page = static_cast<std::uint64_t>(page);
      if (ev.op == TraceOp::kTouchRange || ev.op == TraceOp::kMap) {
        if (!DecodeVarint(payload, p, ev.pages)) {
          Fail(error, record_off, 0, chunk_tag + ": bad varint");
          return std::nullopt;
        }
        if (ev.pages == 0 || ev.pages > kMaxPagesPerEvent ||
            ev.page + ev.pages > max_page) {
          Fail(error, record_off, 0, chunk_tag + ": page count out of range");
          return std::nullopt;
        }
      }
      if (ev.op == TraceOp::kMap) {
        std::uint64_t name_len = 0;
        if (!DecodeVarint(payload, p, name_len) || name_len > kMaxNameLen ||
            payload.size() - p < name_len) {
          Fail(error, record_off, 0, chunk_tag + ": bad map name");
          return std::nullopt;
        }
        ev.name = std::string(payload.substr(p, name_len));
        p += name_len;
      }
      if (ev.at < last_at) {
        Fail(error, record_off, 0, chunk_tag + ": timestamp went backwards");
        return std::nullopt;
      }
      last_at = ev.at;
      prev_at = ev.at;
      prev_page = ev.page;
      trace.events.push_back(std::move(ev));
    }
    if (p != payload.size()) {
      Fail(error, pos + p, 0, chunk_tag + ": trailing bytes in payload");
      return std::nullopt;
    }
    pos += payload_bytes;
  }
  if (pos != text.size()) {
    Fail(error, pos, 0, "trailing bytes after final chunk");
    return std::nullopt;
  }
  if (trace.events.size() != declared_events) {
    Fail(error, pos, 0, "event count mismatch with header");
    return std::nullopt;
  }
  return trace;
}

bool WriteTraceFile(const std::string& path, const Trace& trace,
                    std::string* error) {
  return WriteFile(path, SerializeTrace(trace), error);
}

std::optional<Trace> ReadTraceFile(const std::string& path,
                                   TraceError* error) {
  const std::optional<std::string> bytes = ReadFile(path);
  if (bytes.has_value()) return ParseTrace(*bytes, error);
  Fail(error, 0, 0, "cannot open " + path);
  return std::nullopt;
}

}  // namespace daos::trace
