// Governor micro-bench: what does quota enforcement cost, and what does it
// buy?
//
// One cold 256M heap, one pageout scheme, three quota levels: unlimited,
// 10 % of the heap per second, 1 % per second. For each level the bench
// measures (a) the host-side wall time of an engine apply pass — the
// governor's overhead on the hot path — and (b) the per-reset-window
// applied bytes, which show the quota turning an all-at-once reclaim burst
// into a bounded drip.
//
// Results append a machine-readable entry to BENCH_governor.json in the
// working directory (the governor bench trajectory; one entry per run).
//
// Build & run:  ./build/bench/micro_governor
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "damon/monitor.hpp"
#include "damon/primitives.hpp"
#include "damos/engine.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "util/units.hpp"

namespace {

using namespace daos;

constexpr std::uint64_t kHeap = 256 * MiB;
constexpr Addr kHeapStart = 0x10000000;

struct QuotaLevel {
  const char* name;
  std::uint64_t quota_sz;  // bytes per second, 0 = unlimited
};

struct LevelResult {
  std::string name;
  std::uint64_t quota_sz = 0;
  double wall_us_per_pass = 0.0;
  std::uint64_t total_applied = 0;
  std::uint64_t qt_exceeds = 0;
  std::vector<std::uint64_t> window_applied;  // applied bytes per 1s window
};

LevelResult RunLevel(const QuotaLevel& level) {
  sim::Machine machine(sim::MachineSpec{"bench", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kHeapStart, kHeap, "heap");
  space.TouchRange(kHeapStart, kHeapStart + kHeap, false, 0);

  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults(),
                          /*seed=*/42);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));

  damos::SchemesEngine engine;
  engine.SetMachine(&machine);
  std::string line = "min max min min 2s max pageout";
  if (level.quota_sz > 0) {
    line += " quota_sz=" + std::to_string(level.quota_sz) +
            " quota_reset_ms=1000 prio_weights=1,5,4";
  }
  engine.Attach(ctx);
  engine.InstallFromText(line + "\n");

  LevelResult r;
  r.name = level.name;
  r.quota_sz = level.quota_sz;

  // Drive 10 simulated seconds; the heap goes untouched, so the whole of
  // it matches the scheme once older than 2s. Wall time covers the full
  // monitor step (the apply pass rides the aggregation hook), identically
  // for every level — the delta between levels is the governor.
  const SimTimeUs horizon = 10 * kUsPerSec;
  const damon::MonitoringAttrs& attrs = ctx.attrs();
  SimTimeUs next_window = kUsPerSec;
  std::uint64_t window_base = 0;
  std::size_t passes = 0;
  const auto t0 = bench::Clock::now();
  for (SimTimeUs now = 0; now < horizon; now += attrs.sampling_interval) {
    ctx.Step(now, attrs.sampling_interval);
    ++passes;
    if (now + attrs.sampling_interval >= next_window) {
      const std::uint64_t applied = engine.schemes()[0].stats().sz_applied;
      r.window_applied.push_back(applied - window_base);
      window_base = applied;
      next_window += kUsPerSec;
    }
  }
  r.wall_us_per_pass = bench::Seconds(t0, bench::Clock::now()) * 1e6 /
                       static_cast<double>(passes);
  r.total_applied = engine.schemes()[0].stats().sz_applied;
  r.qt_exceeds = engine.schemes()[0].stats().qt_exceeds;
  return r;
}

}  // namespace

int main() {
  bench::PrintHeader("micro_governor",
                     "apply-pass cost and per-window applied bytes vs quota");

  const QuotaLevel levels[] = {
      {"inf", 0},
      {"10%", kHeap / 10},
      {"1%", kHeap / 100},
  };
  std::vector<LevelResult> results;
  for (const QuotaLevel& level : levels) results.push_back(RunLevel(level));

  std::printf("%-6s %-14s %-16s %-12s %s\n", "quota", "quota_sz/s",
              "wall µs/pass", "qt_exceeds", "applied bytes per window");
  for (const LevelResult& r : results) {
    std::printf("%-6s %-14s %13.2f   %-12llu", r.name.c_str(),
                r.quota_sz == 0 ? "unlimited"
                                : FormatSize(r.quota_sz).c_str(),
                r.wall_us_per_pass,
                static_cast<unsigned long long>(r.qt_exceeds));
    for (std::uint64_t w : r.window_applied)
      std::printf(" %s", FormatSize(w).c_str());
    std::printf("\n");
  }

  std::string row;
  AppendF(row,
          "{\"bench\": \"micro_governor\", \"heap_bytes\": %llu, "
          "\"levels\": [\n",
          static_cast<unsigned long long>(kHeap));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LevelResult& r = results[i];
    AppendF(row,
            "    {\"quota\": \"%s\", \"quota_sz_bytes\": %llu, "
            "\"wall_us_per_pass\": %.2f, \"total_applied_bytes\": %llu, "
            "\"qt_exceeds\": %llu, \"window_applied_bytes\": [",
            r.name.c_str(), static_cast<unsigned long long>(r.quota_sz),
            r.wall_us_per_pass,
            static_cast<unsigned long long>(r.total_applied),
            static_cast<unsigned long long>(r.qt_exceeds));
    for (std::size_t w = 0; w < r.window_applied.size(); ++w) {
      AppendF(row, "%s%llu", w > 0 ? ", " : "",
              static_cast<unsigned long long>(r.window_applied[w]));
    }
    row += i + 1 < results.size() ? "]},\n" : "]}\n";
  }
  row += "  ]}";
  return bench::AppendTrajectory("BENCH_governor.json", row) ? 0 : 1;
}
