#include "telemetry/trace_buffer.hpp"

#include <algorithm>

namespace daos::telemetry {

std::string_view EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kSample:
      return "sample";
    case EventKind::kRegionSplit:
      return "region_split";
    case EventKind::kRegionMerge:
      return "region_merge";
    case EventKind::kAggregation:
      return "aggregation";
    case EventKind::kSchemeApply:
      return "scheme_apply";
    case EventKind::kReclaim:
      return "reclaim";
    case EventKind::kSwapIn:
      return "swap_in";
    case EventKind::kSwapOut:
      return "swap_out";
    case EventKind::kThpCollapse:
      return "thp_collapse";
    case EventKind::kTuneStep:
      return "tune_step";
    case EventKind::kSwapError:
      return "swap_error";
    case EventKind::kOomKill:
      return "oom_kill";
    case EventKind::kSchemeBackoff:
      return "scheme_backoff";
    case EventKind::kQuotaExceeded:
      return "quota_exceeded";
    case EventKind::kWatermark:
      return "watermark";
    case EventKind::kDaemonCrash:
      return "daemon_crash";
    case EventKind::kLifecycleRestart:
      return "lifecycle_restart";
    case EventKind::kLifecycleCommit:
      return "lifecycle_commit";
    case EventKind::kLifecycleDegraded:
      return "lifecycle_degraded";
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : ring_(std::max<std::size_t>(1, capacity)) {}

void TraceBuffer::Push(const TraceEvent& event) noexcept {
  ring_[head_] = event;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  ++pushed_;
  if (count_ == ring_.size()) {
    ++dropped_;  // overwrote the oldest unread event
  } else {
    ++count_;
  }
}

std::vector<TraceEvent> TraceBuffer::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  const std::size_t cap = ring_.size();
  std::size_t at = (head_ + cap - count_) % cap;
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[at]);
    at = at + 1 == cap ? 0 : at + 1;
  }
  return out;
}

}  // namespace daos::telemetry
