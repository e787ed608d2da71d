#include "workload/serverless.hpp"

namespace daos::workload {

ServerSource::ServerSource(const ServerlessConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed) {}

void ServerSource::BuildLayout(sim::AddressSpace& space) {
  space.Map(base_, config_.rss_per_process, "server-heap");
}

sim::TouchStats ServerSource::EmitQuantum(sim::AddressSpace& space,
                                          SimTimeUs now, SimTimeUs quantum) {
  sim::TouchStats st;
  const Addr end = base_ + config_.rss_per_process;
  if (!populated_) {
    // Startup: the server faults in its whole heap (caches, code-adjacent
    // data, arena slack) — the bloat §4.4 measures.
    space.TouchRange(base_, end, /*write=*/true, now, st);
    populated_ = true;
    return st;
  }
  // Working set: the head of the heap, touched every quantum.
  const Addr ws_end =
      base_ + AlignUp(static_cast<Addr>(config_.working_set_frac *
                                        static_cast<double>(
                                            config_.rss_per_process)),
                      kPageSize);
  space.TouchRange(base_, ws_end, rng_.NextBool(0.4), now, st);

  // Rare stray request into the cold part. A non-positive period disables
  // strays entirely (the fleet determinism suite pins the cold half idle);
  // dividing by it instead would make p infinite and stray every quantum.
  if (config_.cold_touch_period_s > 0) {
    const double p = static_cast<double>(quantum) /
                     (config_.cold_touch_period_s * kUsPerSec);
    if (rng_.NextBool(p)) {
      const std::uint64_t cold_pages = (end - ws_end) / kPageSize;
      const Addr a = ws_end + rng_.NextBounded(cold_pages) * kPageSize;
      space.TouchPage(a, false, now, st);
    }
  }
  return st;
}

sim::ProcessParams ServerParams(const ServerlessConfig& config, int index) {
  sim::ProcessParams params;
  params.name = "server-" + std::to_string(index);
  params.run_forever = true;
  params.mem_boundness = 0.4;
  params.thp_gain = 0.0;
  params.zram_ratio = config.zram_ratio;
  return params;
}

}  // namespace daos::workload
