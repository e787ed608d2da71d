// TraceReplaySource: replays a daos-trace as a first-class workload.
//
// Determinism contract (DESIGN §11): the simulator consumes a workload
// only through the AccessSource touch stream plus ProcessParams. A trace
// captures that stream exactly (all of a quantum's touches carry the
// quantum-start timestamp, the same stamping SyntheticSource uses), and
// `trace:` profiles rebuild ProcessParams from the trace header — so a
// replay under the recorded config and seed reproduces the recorded run
// bit-for-bit: same fault sequence, same stall debt, same monitor
// snapshots, same scheme stats, same finish quantum.
//
// Under a *different* config the replay is simply a reproducible workload:
// each quantum emits every not-yet-delivered event with `at <= now`, so
// time never runs ahead of the recording and a stalled replay catches up
// in stream order.
#pragma once

#include <cstddef>
#include <memory>

#include "sim/process.hpp"
#include "trace/format.hpp"

namespace daos::trace {

class TraceReplaySource final : public sim::AccessSource {
 public:
  /// The trace is shared, not copied: fig-grid runs replay the same trace
  /// from many ParallelRunner workers, and the data is immutable.
  explicit TraceReplaySource(std::shared_ptr<const Trace> trace);

  /// Layout comes from the trace's own kMap events, not from here (they
  /// were recorded in-stream, in their original order).
  void BuildLayout(sim::AddressSpace& /*space*/) override {}
  sim::TouchStats EmitQuantum(sim::AddressSpace& space, SimTimeUs now,
                              SimTimeUs quantum) override;

  std::size_t delivered() const noexcept { return cursor_; }
  bool exhausted() const noexcept {
    return trace_ == nullptr || cursor_ >= trace_->events.size();
  }

 private:
  std::shared_ptr<const Trace> trace_;
  std::size_t cursor_ = 0;
};

}  // namespace daos::trace
