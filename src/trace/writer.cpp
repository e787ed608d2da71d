#include "trace/writer.hpp"

#include "util/check.hpp"

namespace daos::trace {

TraceWriter::TraceWriter(TraceMeta meta, std::size_t chunk_records)
    : meta_(std::move(meta)),
      chunk_records_(chunk_records == 0 ? kChunkRecords : chunk_records) {}

void TraceWriter::Add(const TraceEvent& event) {
  // The format requires a monotone time axis; a source handing events out
  // of order is a caller bug, recovered by clamping to the stream clock.
  TraceEvent ev = event;
  if (!DAOS_CHECK(ev.at >= last_at_)) ev.at = last_at_;
  EncodeEvent(payload_, ev, prev_at_, prev_page_);
  last_at_ = ev.at;
  ++payload_records_;
  ++events_;
  if (payload_records_ >= chunk_records_) FlushChunk();
}

void TraceWriter::OnMap(Addr start, std::uint64_t len, std::string_view name) {
  TraceEvent ev;
  ev.at = last_at_;
  ev.op = TraceOp::kMap;
  ev.page = PageOf(start);
  ev.pages = len >> meta_.page_shift;
  ev.name = std::string(name);
  Add(ev);
}

void TraceWriter::OnUnmap(Addr start) {
  TraceEvent ev;
  ev.at = last_at_;
  ev.op = TraceOp::kUnmap;
  ev.page = PageOf(start);
  ev.pages = 1;
  Add(ev);
}

void TraceWriter::OnTouchPage(Addr addr, bool write, SimTimeUs now) {
  TraceEvent ev;
  ev.at = now;
  ev.op = TraceOp::kTouchPage;
  ev.write = write;
  ev.page = PageOf(addr);
  ev.pages = 1;
  Add(ev);
}

void TraceWriter::OnTouchRange(Addr start, Addr end, bool write,
                               SimTimeUs now) {
  if (end <= start) return;
  TraceEvent ev;
  ev.at = now;
  ev.op = TraceOp::kTouchRange;
  ev.write = write;
  ev.page = PageOf(start);
  ev.pages = PageOf(end - 1) - ev.page + 1;
  Add(ev);
}

void TraceWriter::FlushChunk() {
  if (payload_records_ == 0) return;
  AppendChunk(body_, payload_, payload_records_);
  payload_.clear();
  payload_records_ = 0;
  prev_at_ = 0;
  prev_page_ = 0;
  ++chunks_;
}

std::string TraceWriter::Finish() {
  FlushChunk();
  return SerializeHeader(meta_, events_, chunks_) + body_;
}

}  // namespace daos::trace
