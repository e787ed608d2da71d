// Bounded ring buffer of structured tracepoint events.
//
// The kernel DAMON exposes tracepoints (damon_aggregated, ...) consumed
// through a fixed-size perf ring buffer; this is the same contract for the
// reproduction: every layer pushes fixed-size POD events, the buffer keeps
// the most recent `capacity` of them, and overflow *overwrites the oldest
// and counts the drop* — memory use is bounded no matter how long the
// simulation runs. Pushing is a few stores and two increments: no
// allocation, no formatting, no locks.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace daos::telemetry {

enum class EventKind : std::uint8_t {
  kSample,       // damon_aggregated analogue: one region's aggregated counts
  kRegionSplit,  // adaptive regions adjustment split
  kRegionMerge,  // adaptive regions adjustment merge
  kAggregation,  // one aggregation window closed
  kSchemeApply,  // DAMOS action applied to a region
  kReclaim,      // kswapd pass evicted pages
  kSwapIn,       // pages faulted back from the swap device
  kSwapOut,      // pages written out to the swap device
  kThpCollapse,  // khugepaged collapsed blocks
  kTuneStep,     // one autotune sample trial finished
  kSwapError,    // swap-out write failures (injected or device)
  kOomKill,      // a process was OOM-killed to relieve pressure
  kSchemeBackoff,  // a DAMOS scheme was backed off after repeated failures
  kQuotaExceeded,  // a scheme's apply budget blocked regions this pass
  kWatermark,      // a watermark gate flipped a scheme's activation
  kDaemonCrash,    // a supervised kdamond died (fault-injected or detected)
  kLifecycleRestart,  // supervisor rebuilt a kdamond (from checkpoint or cold)
  kLifecycleCommit,   // a staged reconfiguration bundle was swapped in
  kLifecycleDegraded,  // restart budget exhausted: schemes disarmed
};

std::string_view EventKindName(EventKind kind);

/// One tracepoint. Fixed-size POD; the meaning of `id`/`arg0..2` is
/// kind-specific (documented at each emit site). Signed payloads (autotune
/// scores) are stored as two's-complement fixed-point in an arg.
struct TraceEvent {
  SimTimeUs time = 0;
  EventKind kind = EventKind::kSample;
  std::uint32_t id = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint64_t arg2 = 0;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "trace events must stay POD: the ring copies them raw");

class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 4096);

  /// Appends `event`; when full, overwrites the oldest event and counts it
  /// as dropped. Never allocates after construction.
  void Push(const TraceEvent& event) noexcept;

  std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events currently held (<= capacity).
  std::size_t size() const noexcept { return count_; }
  /// Total events ever pushed / overwritten-before-read.
  std::uint64_t pushed() const noexcept { return pushed_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Copies the held events oldest-first.
  std::vector<TraceEvent> Events() const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;   // next write slot
  std::size_t count_ = 0;  // valid events ending just before head_
  std::uint64_t pushed_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace daos::telemetry
