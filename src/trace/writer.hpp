// TraceWriter: the record side of the trace plane.
//
// Attach one to an AddressSpace (`space.SetAccessTap(&writer)`, or via
// ExperimentOptions::record_tap) and every Map/Unmap/TouchPage/TouchRange
// the workload issues streams into daos-trace v1 chunks as it happens —
// memory held is one partial chunk plus the already-encoded body, not an
// event vector. Ranges are canonicalized to page boundaries (every
// built-in source emits page-aligned ranges, so replay is exact).
//
// Map/Unmap arrive without a clock; they are stamped with the most recent
// touch timestamp, which keeps the stream's time axis monotone and — since
// layout calls happen inside the same scheduler quantum as the touches
// around them — replays them in the correct quantum.
#pragma once

#include <cstdint>
#include <string>

#include "sim/address_space.hpp"
#include "trace/format.hpp"

namespace daos::trace {

class TraceWriter final : public sim::AccessTap {
 public:
  explicit TraceWriter(TraceMeta meta, std::size_t chunk_records = kChunkRecords);

  // --- sim::AccessTap --------------------------------------------------------
  void OnMap(Addr start, std::uint64_t len, std::string_view name) override;
  void OnUnmap(Addr start) override;
  void OnTouchPage(Addr addr, bool write, SimTimeUs now) override;
  void OnTouchRange(Addr start, Addr end, bool write, SimTimeUs now) override;

  /// Appends one event directly (the ingestion adapters build traces this
  /// way). Events must arrive in non-decreasing `at` order.
  void Add(const TraceEvent& event);

  std::uint64_t events() const noexcept { return events_; }
  std::uint64_t chunks() const noexcept { return chunks_; }
  /// Encoded body bytes so far (flushed chunks + current partial payload).
  std::uint64_t body_bytes() const noexcept {
    return body_.size() + payload_.size();
  }

  TraceMeta& meta() noexcept { return meta_; }
  const TraceMeta& meta() const noexcept { return meta_; }

  /// Seals the current chunk and returns the complete serialized trace
  /// (header + body). Idempotent; Add() after Finish() starts a new chunk.
  std::string Finish();

 private:
  void FlushChunk();

  TraceMeta meta_;
  std::size_t chunk_records_;
  std::string body_;     // completed chunks, framed
  std::string payload_;  // current chunk, unframed
  std::size_t payload_records_ = 0;
  SimTimeUs prev_at_ = 0;        // chunk-local delta state
  std::uint64_t prev_page_ = 0;  //
  SimTimeUs last_at_ = 0;        // stream clock for Map/Unmap stamping
  std::uint64_t events_ = 0;
  std::uint64_t chunks_ = 0;
};

}  // namespace daos::trace
