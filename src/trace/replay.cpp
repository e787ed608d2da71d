#include "trace/replay.hpp"

#include "util/check.hpp"

namespace daos::trace {

TraceReplaySource::TraceReplaySource(std::shared_ptr<const Trace> trace)
    : trace_(std::move(trace)) {}

sim::TouchStats TraceReplaySource::EmitQuantum(sim::AddressSpace& space,
                                               SimTimeUs now,
                                               SimTimeUs quantum) {
  sim::TouchStats st;
  if (trace_ == nullptr) return st;
  const std::uint64_t shift = trace_->meta.page_shift;
  const auto& events = trace_->events;
  while (cursor_ < events.size() && events[cursor_].at <= now) {
    const TraceEvent& ev = events[cursor_++];
    const Addr addr = static_cast<Addr>(ev.page) << shift;
    switch (ev.op) {
      case TraceOp::kMap:
        // Parse bounds pages <= 2^33 and page <= 2^52, so the byte math
        // cannot overflow; an overlap is refused by the space (logged by
        // its DAOS_CHECK) and the corresponding touches become no-ops.
        space.Map(addr, ev.pages << shift, ev.name);
        break;
      case TraceOp::kUnmap:
        space.UnmapVma(addr);
        break;
      case TraceOp::kTouchPage:
        // Replay stamps with `now`, not ev.at: when the replay run stalls
        // differently than the recording (different config), catch-up
        // touches must not write timestamps into the touch log's past.
        // Under the recorded config ev.at == now for every event anyway.
        space.TouchPage(addr, ev.write, now, st);
        break;
      case TraceOp::kTouchRange:
        space.TouchRange(addr, addr + (ev.pages << shift), ev.write, now, st);
        break;
    }
  }
  (void)quantum;
  return st;
}

}  // namespace daos::trace
