// daos-trace v1: a versioned, delta-encoded, chunked binary access-trace
// format — the record/replay plane's wire format (DESIGN §11).
//
// A trace is the complete page-touch stream of one process: every Map,
// Unmap, TouchPage and TouchRange the workload issued, in order, with
// quantum-granular timestamps. Replaying it through TraceReplaySource
// reproduces the recorded run bit-identically (same monitor snapshots,
// same scheme stats), because the simulator is deterministic in its
// inputs and the trace *is* the workload input.
//
// Layout, following the checkpoint discipline (DESIGN §9: self-describing
// text header, doubles as "%a" hex-floats, all-or-nothing parse with
// position-accurate errors):
//
//   daos-trace v1
//   name <workload name>
//   page_shift 12
//   quantum_us 5000
//   data_bytes <N>
//   runtime_s <%a>          }  recorded process parameters, so a replay
//   mem_boundness <%a>      }  finishes at the same quantum the recorded
//   thp_gain <%a>           }  run did
//   zram_ratio <%a>         }
//   events <N>
//   chunks <N>
//   body
//   <binary chunks>
//
// Each chunk is `u32le payload_bytes | u32le record_count | u32le crc32 |
// payload`. The payload packs records as:
//
//   op byte   bits 0-1: op (0 map, 1 unmap, 2 touch, 3 range)
//             bit 2: write
//   varint    dt (µs since previous record in this chunk; first: absolute)
//   varint    zigzag(page - previous record's page; first: page - 0)
//   varint    page count            (range and map records only)
//   varint    name length, then raw bytes   (map records only)
//
// Delta state resets at every chunk boundary, so a chunk is decodable
// on its own and a CRC failure is attributable to one chunk.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace daos::trace {

inline constexpr std::string_view kTraceMagic = "daos-trace v1";
/// Records per chunk before the writer cuts a boundary.
inline constexpr std::size_t kChunkRecords = 4096;
/// Bytes a naive fixed-width encoding would spend per event (8-byte
/// timestamp + 8-byte address + 4-byte count + 1-byte op); the baseline
/// the compression ratio in BENCH_trace.json is measured against.
inline constexpr std::uint64_t kRawEventBytes = 21;

enum class TraceOp : std::uint8_t {
  kMap = 0,
  kUnmap = 1,
  kTouchPage = 2,
  kTouchRange = 3,
};

/// One access event. Addresses travel as page numbers; `pages` is the
/// mapped/touched length in pages (1 for kTouchPage, unused for kUnmap).
struct TraceEvent {
  SimTimeUs at = 0;
  TraceOp op = TraceOp::kTouchPage;
  bool write = false;
  std::uint64_t page = 0;
  std::uint64_t pages = 1;
  std::string name;  // kMap only: the VMA name

  bool operator==(const TraceEvent&) const = default;
};

/// Header fields: enough to rebuild the recorded process's parameters so
/// the replay finishes on the same quantum the recording did.
struct TraceMeta {
  std::string name = "trace";
  std::uint64_t page_shift = kPageShift;
  SimTimeUs quantum_us = 5 * kUsPerMs;
  std::uint64_t data_bytes = 0;
  double runtime_s = 0.0;
  double mem_boundness = 0.5;
  double thp_gain = 0.0;
  double zram_ratio = 3.0;
};

struct Trace {
  TraceMeta meta;
  std::vector<TraceEvent> events;

  /// Timestamp of the last event (0 for an empty trace).
  SimTimeUs Duration() const {
    return events.empty() ? 0 : events.back().at;
  }
};

/// Position-accurate parse failure. Header problems carry a 1-based
/// `line_number`; body problems carry the byte `offset` into the input
/// (and the chunk index in the message).
struct TraceError {
  std::size_t offset = 0;
  int line_number = 0;
  std::string message;

  std::string Format() const;
};

// --- primitive encoders (exposed for tests) --------------------------------

void AppendVarint(std::string& out, std::uint64_t v);
/// Decodes one varint at `pos`, advancing it. False on truncation or a
/// varint longer than 10 bytes (pos is left at the failure point).
bool DecodeVarint(std::string_view in, std::size_t& pos, std::uint64_t& out);
std::uint64_t ZigZag(std::int64_t v);
std::int64_t UnZigZag(std::uint64_t v);
/// CRC-32 (IEEE 802.3 polynomial, the zlib one), no external deps.
std::uint32_t Crc32(std::string_view data);
/// Appends one record against the chunk-local delta state (advanced in
/// place). Shared by SerializeTrace and the streaming TraceWriter.
void EncodeEvent(std::string& out, const TraceEvent& event, SimTimeUs& prev_at,
                 std::uint64_t& prev_page);
/// Appends one framed chunk: the payload size, record count and CRC-32 of
/// `payload` as u32-le, then the payload. Shared by SerializeTrace and the
/// streaming TraceWriter.
void AppendChunk(std::string& out, std::string_view payload,
                 std::uint64_t records);

// --- whole-trace serialization ---------------------------------------------

std::string SerializeTrace(const Trace& trace,
                           std::size_t chunk_records = kChunkRecords);
/// Just the text header (magic through "body\n"); the streaming writer
/// prepends this to its already-encoded chunks. SerializeTrace uses the
/// same function, so both producers emit byte-identical headers.
std::string SerializeHeader(const TraceMeta& meta, std::uint64_t events,
                            std::uint64_t chunks);
/// All-or-nothing parse: any malformed header line, truncated chunk, CRC
/// mismatch, bad varint, or out-of-bounds field yields nullopt with
/// `*error` filled, never a partial trace.
std::optional<Trace> ParseTrace(std::string_view text,
                                TraceError* error = nullptr);

// --- file helpers -----------------------------------------------------------

/// Writes `trace` to `path`, replacing it (util/file.hpp error texts).
bool WriteTraceFile(const std::string& path, const Trace& trace,
                    std::string* error = nullptr);
std::optional<Trace> ReadTraceFile(const std::string& path,
                                   TraceError* error = nullptr);

}  // namespace daos::trace
