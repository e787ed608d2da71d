// Ingestion adapters: external text traces -> daos-trace v1.
//
// Two input dialects are accepted (`daos_ctl ingest` auto-detects):
//
// 1. valgrind/lackey style ("op addr size" per line, `valgrind
//    --tool=lackey --trace-mem=yes` output):
//
//        I  0400d7d4,8        instruction fetch (skipped: not data)
//         L 0421c7f0,4        load
//         S 0421c7f0,4        store
//         M 0421c7f0,4        modify (load + store)
//
//    Addresses are bare hex; `==...==`/`--...--` banner lines, blank
//    lines and `#` comments are skipped.
//
// 2. CSV, one event per row, optional header row `time_us,op,addr,size`:
//
//        time_us,op,addr,size
//        0,map,0x10000000,67108864
//        0,r,0x10000000,4096
//        5000,w,0x10001000,64
//        20000,unmap,0x10000000,0
//
//    `op` is r | w | map | unmap; `addr` is hex (0x-prefixed) or decimal;
//    `size` is bytes. `time_us` must be non-decreasing and at most
//    kMaxIngestEndUs (2^53) minus one quantum: the replay ends one quantum
//    after the last row, and that end time must neither wrap nor round
//    when it becomes the trace's `runtime_s`.
//
// Lackey traces carry no clock, so events are spread over simulated time
// at `ops_per_quantum` per quantum. CSV traces without map rows (and all
// lackey traces) get a synthesized layout: touched pages are clustered
// into VMAs wherever the address gap exceeds 32 MiB, mirroring the
// stack/mmap/heap gaps the monitor's three-regions logic expects.
//
// Errors are line-accurate and all-or-nothing: a hostile or truncated
// line rejects the whole ingestion.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "trace/format.hpp"

namespace daos::trace {

struct IngestError {
  int line_number = 0;
  std::string message;
};

struct IngestOptions {
  /// Lackey only: how many input operations land in each quantum.
  std::uint64_t ops_per_quantum = 200;
  SimTimeUs quantum_us = 5 * kUsPerMs;
};

/// Ceiling on an ingested trace's end time (last event + one quantum), in
/// simulated microseconds: every integer up to 2^53 is exact as a double.
inline constexpr SimTimeUs kMaxIngestEndUs = SimTimeUs{1} << 53;

enum class TraceTextFormat : std::uint8_t { kLackey, kCsv, kUnknown };

/// Sniffs the dialect from the first non-banner, non-empty line.
TraceTextFormat DetectTraceTextFormat(std::string_view text);

std::optional<Trace> IngestLackey(std::string_view text, std::string_view name,
                                  const IngestOptions& options,
                                  IngestError* error = nullptr);
std::optional<Trace> IngestCsv(std::string_view text, std::string_view name,
                               const IngestOptions& options,
                               IngestError* error = nullptr);
/// Auto-detecting front end used by `daos_ctl ingest`.
std::optional<Trace> IngestText(std::string_view text, std::string_view name,
                                const IngestOptions& options,
                                IngestError* error = nullptr);

}  // namespace daos::trace
