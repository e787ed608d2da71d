// Sim-core micro-bench: how many pages per second can the simulator's
// access-state machinery examine?
//
// The headline metric (pages_sampled_per_s) aggregates the three per-page
// sweep paths everything above the sim scales with: DAMOS COLD deactivation
// sweeps, the baseline reclaimer's CLOCK scan, and the tier balancer's
// aging scan. Secondary metrics cover the touch paths a workload drives
// (random TouchPage, a resident TouchRange, a barnes-shaped TouchRange per
// partly used 2 MiB block), the monitor primitives
// (MkOld/IsYoung pairs, on a fresh touch log and on a full one), VMA
// lookup, full monitor sampling passes at 1000
// and 100 regions, scheme matching and text parsing, a DAMOS engine pass,
// and how fast the System advances simulated time when nothing but a
// monitor is scheduled (dense per-quantum stepping with no workload).
//
// Results append a machine-readable entry to BENCH_sim.json in the working
// directory (same trajectory-array schema as BENCH_runner.json). The first
// entry was recorded on the pre-overhaul core (16-byte Page structs, dense
// quantum stepping); later entries track the packed-bitmap core (entries
// recorded while idle quanta could be skipped also carry that jump).
//
// Build & run:  ./build/bench/micro_sim   (DAOS_BENCH_FULL=1: 10x loops)
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "damon/monitor.hpp"
#include "damon/primitives.hpp"
#include "damos/engine.hpp"
#include "damos/parser.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace daos;
using bench::Clock;
using bench::Seconds;

constexpr char kBench[] = "micro_sim";
constexpr Addr kHeap = 0x10000000;
constexpr std::uint64_t kHeapBytes = 512 * MiB;

// Loop count: the quick default, ten times that under DAOS_BENCH_FULL=1.
std::uint64_t Iters(std::uint64_t quick) {
  return bench::FullMode() ? 10 * quick : quick;
}

// Pages one sweep examined and the wall time it took.
struct Sweep {
  std::uint64_t pages = 0;
  double wall_s = 0.0;
  double PerSecond() const { return static_cast<double>(pages) / wall_s; }
};

// An I3Metal guest with zram and a fully resident 512 MiB heap: the
// fixture of every probe that works on resident pages.
struct ResidentHeap {
  ResidentHeap()
      : machine(sim::MachineSpec::I3Metal().GuestOf(),
                sim::SwapConfig::Zram()),
        space(1, &machine, 3.0) {
    space.Map(kHeap, kHeapBytes, "heap");
    space.TouchRange(kHeap, kHeap + kHeapBytes, false, 0);
  }
  sim::Machine machine;
  sim::AddressSpace space;
};

// --- sweep 1: DAMOS COLD deactivation over a fully resident space ----------
Sweep DeactivateSweep() {
  ResidentHeap f;
  const std::uint64_t iters = Iters(20);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    if (f.space.DeactivateRange(kHeap, kHeap + kHeapBytes) != kHeapBytes)
      bench::Die(kBench, "DeactivateRange covered fewer bytes than mapped");
  }
  return {kHeapBytes / kPageSize * iters, Seconds(t0, Clock::now())};
}

// --- sweep 2: reclaimer CLOCK scan over a cold (never-touched) space -------
Sweep ReclaimScanSweep() {
  sim::Machine machine(sim::MachineSpec::I3Metal().GuestOf(),
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kHeap, 1 * GiB, "cold");
  // target*8 caps the scan budget at 2^18 pages per call; nothing is
  // resident, so every call examines the full budget and evicts nothing.
  const std::uint64_t budget = std::uint64_t{1} << 18;
  const std::uint64_t iters = Iters(10);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    if (machine.DirectReclaim(budget / 8, 0) != 0)
      bench::Die(kBench, "DirectReclaim evicted from an empty space");
  }
  return {budget * iters, Seconds(t0, Clock::now())};
}

// --- sweep 3: tier balancer aging scan over a cold space -------------------
Sweep TierScanSweep() {
  sim::Machine machine(sim::MachineSpec::I3Metal().GuestOf(),
                       sim::SwapConfig::Zram());
  sim::TierGeometry tiers;
  std::string error;
  if (!sim::ParseTierGeometry("dram 64M\ncxl 2G lat=0.6", &tiers, &error))
    bench::Die(kBench, "tier geometry rejected");
  if (!machine.SetTierGeometry(tiers, &error))
    bench::Die(kBench, error.c_str());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kHeap, 512 * MiB, "cold");
  const std::uint64_t budget_per_call = 512 * MiB / kPageSize;
  const std::uint64_t iters = Iters(10);
  std::uint64_t examined = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    std::uint64_t budget = budget_per_call;
    if (space.TierDemoteScan(0, &budget, 1u << 20, kUsPerSec) != 0)
      bench::Die(kBench, "TierDemoteScan demoted from an empty space");
    examined += budget_per_call - budget;
  }
  return {examined, Seconds(t0, Clock::now())};
}

// --- touch paths: random resident TouchPage, whole-heap TouchRange --------
double TouchPagesPerS() {
  ResidentHeap f;
  const std::uint64_t touches = Iters(2'000'000);
  Rng rng(1);
  sim::TouchStats st;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < touches; ++i) {
    const Addr a = kHeap + rng.NextBounded(kHeapBytes / kPageSize) * kPageSize;
    f.space.TouchPage(a, false, static_cast<SimTimeUs>(i), st);
  }
  const auto t1 = Clock::now();
  if (st.pages != touches) bench::Die(kBench, "TouchPage missed a page");
  return static_cast<double>(touches) / Seconds(t0, t1);
}

Sweep TouchRangeSweep() {
  ResidentHeap f;
  const std::uint64_t ranges = Iters(10'000);
  std::uint64_t touched = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ranges; ++i) {
    const SimTimeUs now = static_cast<SimTimeUs>(i) * 5000;
    touched += f.space.TouchRange(kHeap, kHeap + kHeapBytes, false, now).pages;
  }
  const auto t1 = Clock::now();
  if (touched != ranges * (kHeapBytes / kPageSize))
    bench::Die(kBench, "TouchRange missed resident pages");
  return {touched, Seconds(t0, t1)};
}

// Barnes-shaped heap: the workload uses the first 90 % of every 2 MiB block,
// so no block is ever fully resident and each range touch takes the
// partly-resident path, one TouchRange per block as the generator issues.
Sweep TouchRangeSparseSweep() {
  sim::Machine machine(sim::MachineSpec::I3Metal().GuestOf(),
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(kHeap, kHeapBytes, "heap");
  const std::uint64_t blocks = kHeapBytes / kHugePageSize;
  const std::uint64_t used_bytes = kPagesPerHuge * 9 / 10 * kPageSize;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const Addr start = kHeap + b * kHugePageSize;
    space.TouchRange(start, start + used_bytes, true, 0);
  }
  const std::uint64_t rounds = Iters(40);
  std::uint64_t touched = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 1; i <= rounds; ++i) {
    const SimTimeUs now = static_cast<SimTimeUs>(i) * 5000;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const Addr start = kHeap + b * kHugePageSize;
      touched += space.TouchRange(start, start + used_bytes, false, now).pages;
    }
  }
  const auto t1 = Clock::now();
  if (touched != rounds * blocks * (used_bytes / kPageSize))
    bench::Die(kBench, "sparse TouchRange missed used pages");
  return {touched, Seconds(t0, t1)};
}

// --- monitor primitives: MkOld + IsYoung pairs -----------------------------
double MkOldPairsPerS() {
  ResidentHeap f;
  const std::uint64_t pairs = Iters(200'000);
  Rng rng(7);
  std::uint64_t young = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const Addr a = kHeap + rng.NextBounded(kHeapBytes / kPageSize) * kPageSize;
    young += f.space.IsYoung(a) ? 1 : 0;
    f.space.MkOld(a, static_cast<SimTimeUs>(i));
  }
  const auto t1 = Clock::now();
  if (young == 0) bench::Die(kBench, "IsYoung never saw an accessed page");
  return static_cast<double>(pairs) / Seconds(t0, t1);
}

// The same pairs against a touch log holding kLogCap (4096) sliding-window
// sweeps over the heap's first half: every check falls through the accessed
// bit to the log, whose answer is "young" in the first half and "not
// young" in the second.
double IsYoungFullLogPerS() {
  ResidentHeap f;
  constexpr std::uint64_t kWindow = 64 * MiB;
  constexpr std::uint64_t kSlide = 2 * MiB;
  constexpr std::uint64_t kSweeps = 4096;
  for (std::uint64_t i = 0; i < kSweeps; ++i) {
    const Addr start = kHeap + (i % ((kHeapBytes / 2 - kWindow) / kSlide)) *
                                   kSlide;
    f.space.TouchRange(start, start + kWindow, false,
                       static_cast<SimTimeUs>(i + 2) * kUsPerMs);
  }
  if (f.space.FindVma(kHeap)->log_size() != kSweeps)
    bench::Die(kBench, "touch log is not full");
  const std::uint64_t pairs = Iters(200'000);
  Rng rng(13);
  std::uint64_t young = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const Addr a = kHeap + rng.NextBounded(kHeapBytes / kPageSize) * kPageSize;
    f.space.MkOld(a, kUsPerMs);
    young += f.space.IsYoung(a) ? 1 : 0;
  }
  const auto t1 = Clock::now();
  if (young == 0 || young == pairs)
    bench::Die(kBench, "full-log IsYoung answers degenerate");
  return static_cast<double>(pairs) / Seconds(t0, t1);
}

// --- VMA lookup over a fragmented layout -----------------------------------
double FindVmaLookupsPerS() {
  sim::Machine machine(sim::MachineSpec::I3Metal().GuestOf(),
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  const std::size_t nvmas = 512;
  const std::uint64_t vma_bytes = 256 * KiB;
  for (std::size_t i = 0; i < nvmas; ++i) {
    // Leave a hole between neighbours so misses stay possible.
    space.Map(kHeap + i * 2 * vma_bytes, vma_bytes, "frag");
  }
  const std::uint64_t lookups = Iters(400'000);
  Rng rng(11);
  std::uint64_t hits = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < lookups; ++i) {
    const Addr a = kHeap + rng.NextBounded(nvmas * 2 * vma_bytes);
    hits += space.FindVma(a) != nullptr ? 1 : 0;
  }
  const auto t1 = Clock::now();
  if (hits == 0 || hits == lookups)
    bench::Die(kBench, "FindVma hit rate degenerate");
  return static_cast<double>(lookups) / Seconds(t0, t1);
}

// --- full monitor sampling passes ------------------------------------------
double MonitorStepsPerS(std::uint32_t max_nr_regions, std::uint64_t steps) {
  ResidentHeap f;
  damon::MonitoringAttrs attrs;
  attrs.max_nr_regions = max_nr_regions;
  damon::DamonContext ctx(attrs);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&f.space));
  SimTimeUs now = 0;
  for (int i = 0; i < 200; ++i) {  // let regions converge
    ctx.Step(now, attrs.sampling_interval);
    now += attrs.sampling_interval;
  }
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < steps; ++i) {
    ctx.Step(now, attrs.sampling_interval);
    now += attrs.sampling_interval;
  }
  const auto t1 = Clock::now();
  if (ctx.TotalRegions() == 0) bench::Die(kBench, "monitor lost its regions");
  return static_cast<double>(steps) / Seconds(t0, t1);
}

// --- DAMOS: scheme matching, scheme text parsing, engine passes ------------
double SchemeMatchesPerS() {
  const damos::Scheme scheme = damos::Scheme::Prcl(5 * kUsPerSec);
  const damon::MonitoringAttrs attrs;
  const damon::Region region{0x1000, 0x1000 + 8 * MiB, 0, 0, 120, 0};
  const std::uint64_t matches = Iters(5'000'000);
  std::uint64_t matched = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < matches; ++i)
    matched += scheme.Matches(region, attrs) ? 1 : 0;
  const auto t1 = Clock::now();
  if (matched != matches) bench::Die(kBench, "prcl missed an aged region");
  return static_cast<double>(matches) / Seconds(t0, t1);
}

double ParseSchemesPerS() {
  const std::string text =
      "min max min min 2m max pageout\n"
      "2MB max 80% max 1m max hugepage\n"
      "min max min 5% 1m max nohugepage\n";
  const std::uint64_t parses = Iters(20'000);
  std::uint64_t parsed = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < parses; ++i)
    parsed += damos::ParseSchemes(text).schemes.size();
  const auto t1 = Clock::now();
  if (parsed != 3 * parses) bench::Die(kBench, "scheme text rejected");
  return static_cast<double>(parses) / Seconds(t0, t1);
}

// Freshly initialized regions carry no samples yet, so no region matches:
// this prices the pass itself (plan, region walk, match tests).
double EnginePassesPerS() {
  ResidentHeap f;
  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults());
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&f.space));
  ctx.InitRegionsFor(ctx.targets()[0]);
  damos::SchemesEngine engine({damos::Scheme::WssStat()});
  const std::uint64_t passes = Iters(200'000);
  SimTimeUs now = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < passes; ++i) {
    engine.Apply(ctx, now);
    now += 100 * kUsPerMs;
  }
  const auto t1 = Clock::now();
  if (ctx.TotalRegions() == 0) bench::Die(kBench, "engine had no regions");
  return static_cast<double>(passes) / Seconds(t0, t1);
}

// --- idle System stepping: simulated-time throughput -----------------------
// A dense idle-stepping probe: a System whose only schedulable work is a
// monitor daemon sampling every 5 ms. Run() executes every 1 ms quantum, so
// this measures the fixed per-quantum cost of Step() with no workload.
double IdleSimUsPerWallS() {
  sim::System system(sim::MachineSpec::I3Metal().GuestOf(),
                     sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &system.machine(), 3.0);
  const std::uint64_t bytes = 256 * MiB;
  space.Map(kHeap, bytes, "heap");
  space.TouchRange(kHeap, kHeap + bytes, false, 0);
  damon::MonitoringAttrs attrs;
  damon::DamonContext ctx(attrs);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));
  system.RegisterDaemon([&ctx](SimTimeUs now, SimTimeUs quantum) {
    return ctx.Step(now, quantum);
  });
  const SimTimeUs horizon = Iters(60) * kUsPerSec;
  const auto t0 = Clock::now();
  system.Run(horizon);
  const auto t1 = Clock::now();
  if (system.Now() < horizon) bench::Die(kBench, "idle system stopped early");
  if (ctx.TotalRegions() == 0)
    bench::Die(kBench, "idle system never sampled");
  return static_cast<double>(system.Now()) / Seconds(t0, t1);
}

struct Metric {
  const char* key;    // trajectory key
  const char* label;  // console label
  const char* unit;
  double value;
};

}  // namespace

int main() {
  bench::PrintHeader(kBench, "sim-core page-sweep & stepping throughput");

  const Sweep sweeps[] = {DeactivateSweep(), ReclaimScanSweep(),
                          TierScanSweep()};
  Sweep sampled;  // the headline: the three sweeps aggregated
  for (const Sweep& sweep : sweeps) {
    sampled.pages += sweep.pages;
    sampled.wall_s += sweep.wall_s;
  }
  const Metric metrics[] = {
      {"pages_sampled_per_s", "pages sampled (aggregate)",
       "pages/s  <- headline", sampled.PerSecond()},
      {"deactivate_pages_per_s", "deactivate sweep", "pages/s",
       sweeps[0].PerSecond()},
      {"reclaim_scan_pages_per_s", "reclaim CLOCK scan", "pages/s",
       sweeps[1].PerSecond()},
      {"tier_scan_pages_per_s", "tier aging scan", "pages/s",
       sweeps[2].PerSecond()},
      {"mkold_pairs_per_s", "MkOld+IsYoung", "pairs/s", MkOldPairsPerS()},
      {"isyoung_full_log_per_s", "MkOld+IsYoung (full log)", "pairs/s",
       IsYoungFullLogPerS()},
      {"find_vma_lookups_per_s", "FindVma (512 VMAs)", "lookups/s",
       FindVmaLookupsPerS()},
      {"monitor_steps_per_s", "monitor pass (1000 regions)", "steps/s",
       MonitorStepsPerS(1000, Iters(2'000))},
      {"idle_sim_us_per_wall_s", "idle System stepping", "sim-us/s",
       IdleSimUsPerWallS()},
      {"touch_pages_per_s", "TouchPage (random, resident)", "pages/s",
       TouchPagesPerS()},
      {"touch_range_pages_per_s", "TouchRange (512M, resident)", "pages/s",
       TouchRangeSweep().PerSecond()},
      {"touch_range_sparse_pages_per_s", "TouchRange (90% of each 2M)",
       "pages/s", TouchRangeSparseSweep().PerSecond()},
      {"monitor_100_steps_per_s", "monitor pass (100 regions)", "steps/s",
       MonitorStepsPerS(100, Iters(20'000))},
      {"scheme_matches_per_s", "scheme match (prcl)", "matches/s",
       SchemeMatchesPerS()},
      {"parse_schemes_per_s", "ParseSchemes (3 lines)", "texts/s",
       ParseSchemesPerS()},
      {"engine_passes_per_s", "engine pass (wss stat)", "passes/s",
       EnginePassesPerS()},
  };

  std::string row = "{\"bench\": \"micro_sim\"";
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.3e %s\n", m.label, m.value, m.unit);
    AppendF(row, ", \"%s\": %.3e", m.key, m.value);
  }
  row += "}";
  return bench::AppendTrajectory("BENCH_sim.json", row) ? 0 : 1;
}
