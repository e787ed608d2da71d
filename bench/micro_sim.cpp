// Sim-core micro-bench: how many pages per second can the simulator's
// access-state machinery examine?
//
// The headline metric (pages_sampled_per_s) aggregates the three per-page
// sweep paths everything above the sim scales with: DAMOS COLD deactivation
// sweeps, the baseline reclaimer's CLOCK scan, and the tier balancer's
// aging scan. Secondary metrics cover the monitor primitives (MkOld/IsYoung
// pairs), VMA lookup, a full monitor sampling pass, and how fast the System
// advances simulated time when nothing but a monitor is scheduled (dense
// per-quantum stepping with no workload).
//
// Results append a machine-readable entry to BENCH_sim.json in the working
// directory (same trajectory-array schema as BENCH_runner.json). The first
// entry was recorded on the pre-overhaul core (16-byte Page structs, dense
// quantum stepping); later entries track the packed-bitmap core (entries
// recorded while idle quanta could be skipped also carry that jump).
//
// Build & run:  ./build/bench/micro_sim [--quick]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "damon/monitor.hpp"
#include "damon/primitives.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace daos;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Metrics {
  double deactivate_pages_per_s = 0.0;
  double reclaim_scan_pages_per_s = 0.0;
  double tier_scan_pages_per_s = 0.0;
  double pages_sampled_per_s = 0.0;  // aggregate of the three sweeps above
  double mkold_pairs_per_s = 0.0;
  double find_vma_lookups_per_s = 0.0;
  double monitor_steps_per_s = 0.0;
  double idle_sim_us_per_wall_s = 0.0;
};

void Die(const char* what) {
  std::fprintf(stderr, "micro_sim: sanity check failed: %s\n", what);
  std::exit(1);
}

// --- sweep 1: DAMOS COLD deactivation over a fully resident space ----------
void BenchDeactivate(bool quick, Metrics* m, std::uint64_t* pages,
                     double* wall) {
  sim::Machine machine(sim::MachineSpec::I3Metal().GuestOf(),
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  const std::uint64_t bytes = 512 * MiB;
  space.Map(0x10000000, bytes, "heap");
  space.TouchRange(0x10000000, 0x10000000 + bytes, false, 0);
  const std::uint64_t span_pages = bytes / kPageSize;
  const int iters = quick ? 20 : 200;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    if (space.DeactivateRange(0x10000000, 0x10000000 + bytes) != bytes)
      Die("DeactivateRange covered fewer bytes than mapped");
  }
  const auto t1 = Clock::now();
  *wall = Seconds(t0, t1);
  *pages = span_pages * static_cast<std::uint64_t>(iters);
  m->deactivate_pages_per_s = static_cast<double>(*pages) / *wall;
}

// --- sweep 2: reclaimer CLOCK scan over a cold (never-touched) space -------
void BenchReclaimScan(bool quick, Metrics* m, std::uint64_t* pages,
                      double* wall) {
  sim::Machine machine(sim::MachineSpec::I3Metal().GuestOf(),
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(0x10000000, 1 * GiB, "cold");
  // target*8 caps the scan budget at 2^18 pages per call; nothing is
  // resident, so every call examines the full budget and evicts nothing.
  const std::uint64_t budget = std::uint64_t{1} << 18;
  const int iters = quick ? 10 : 100;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    if (machine.DirectReclaim(budget / 8, 0) != 0)
      Die("DirectReclaim evicted from an empty space");
  }
  const auto t1 = Clock::now();
  *wall = Seconds(t0, t1);
  *pages = budget * static_cast<std::uint64_t>(iters);
  m->reclaim_scan_pages_per_s = static_cast<double>(*pages) / *wall;
}

// --- sweep 3: tier balancer aging scan over a cold space -------------------
void BenchTierScan(bool quick, Metrics* m, std::uint64_t* pages,
                   double* wall) {
  sim::Machine machine(sim::MachineSpec::I3Metal().GuestOf(),
                       sim::SwapConfig::Zram());
  sim::TierGeometry tiers;
  std::string error;
  if (!sim::ParseTierGeometry("dram 64M\ncxl 2G lat=0.6", &tiers, &error))
    Die("tier geometry rejected");
  if (!machine.SetTierGeometry(tiers, &error)) Die(error.c_str());
  sim::AddressSpace space(1, &machine, 3.0);
  space.Map(0x10000000, 512 * MiB, "cold");
  const std::uint64_t budget_per_call = 512 * MiB / kPageSize;
  const int iters = quick ? 10 : 100;
  std::uint64_t examined = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    std::uint64_t budget = budget_per_call;
    if (space.TierDemoteScan(0, &budget, 1u << 20, kUsPerSec) != 0)
      Die("TierDemoteScan demoted from an empty space");
    examined += budget_per_call - budget;
  }
  const auto t1 = Clock::now();
  *wall = Seconds(t0, t1);
  *pages = examined;
  m->tier_scan_pages_per_s = static_cast<double>(*pages) / *wall;
}

// --- monitor primitives: MkOld + IsYoung pairs -----------------------------
void BenchMkOld(bool quick, Metrics* m) {
  sim::Machine machine(sim::MachineSpec::I3Metal().GuestOf(),
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  const std::uint64_t bytes = 512 * MiB;
  space.Map(0x10000000, bytes, "heap");
  space.TouchRange(0x10000000, 0x10000000 + bytes, false, 0);
  const std::uint64_t npages = bytes / kPageSize;
  const std::uint64_t pairs = quick ? 200'000 : 2'000'000;
  Rng rng(7);
  std::uint64_t young = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const Addr a = 0x10000000 + rng.NextBounded(npages) * kPageSize;
    young += space.IsYoung(a) ? 1 : 0;
    space.MkOld(a, static_cast<SimTimeUs>(i));
  }
  const auto t1 = Clock::now();
  if (young == 0) Die("IsYoung never saw an accessed page");
  m->mkold_pairs_per_s = static_cast<double>(pairs) / Seconds(t0, t1);
}

// --- VMA lookup over a fragmented layout -----------------------------------
void BenchFindVma(bool quick, Metrics* m) {
  sim::Machine machine(sim::MachineSpec::I3Metal().GuestOf(),
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  const std::size_t nvmas = 512;
  const std::uint64_t vma_bytes = 256 * KiB;
  for (std::size_t i = 0; i < nvmas; ++i) {
    // Leave a hole between neighbours so misses stay possible.
    space.Map(0x10000000 + i * 2 * vma_bytes, vma_bytes, "frag");
  }
  const std::uint64_t lookups = quick ? 400'000 : 4'000'000;
  Rng rng(11);
  std::uint64_t hits = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < lookups; ++i) {
    const Addr a = 0x10000000 + rng.NextBounded(nvmas * 2 * vma_bytes);
    hits += space.FindVma(a) != nullptr ? 1 : 0;
  }
  const auto t1 = Clock::now();
  if (hits == 0 || hits == lookups) Die("FindVma hit rate degenerate");
  m->find_vma_lookups_per_s = static_cast<double>(lookups) / Seconds(t0, t1);
}

// --- full monitor sampling passes ------------------------------------------
void BenchMonitor(bool quick, Metrics* m) {
  sim::Machine machine(sim::MachineSpec::I3Metal().GuestOf(),
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  const std::uint64_t bytes = 512 * MiB;
  space.Map(0x10000000, bytes, "heap");
  space.TouchRange(0x10000000, 0x10000000 + bytes, false, 0);
  damon::MonitoringAttrs attrs;
  attrs.max_nr_regions = 1000;
  damon::DamonContext ctx(attrs);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));
  SimTimeUs now = 0;
  for (int i = 0; i < 200; ++i) {  // let regions converge
    ctx.Step(now, attrs.sampling_interval);
    now += attrs.sampling_interval;
  }
  const int steps = quick ? 2'000 : 20'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < steps; ++i) {
    ctx.Step(now, attrs.sampling_interval);
    now += attrs.sampling_interval;
  }
  const auto t1 = Clock::now();
  if (ctx.TotalRegions() == 0) Die("monitor lost its regions");
  m->monitor_steps_per_s = static_cast<double>(steps) / Seconds(t0, t1);
}

// --- idle System stepping: simulated-time throughput -----------------------
// A dense idle-stepping probe: a System whose only schedulable work is a
// monitor daemon sampling every 5 ms. Run() executes every 1 ms quantum, so
// this measures the fixed per-quantum cost of Step() with no workload.
void BenchIdleSystem(bool quick, Metrics* m) {
  sim::System system(sim::MachineSpec::I3Metal().GuestOf(),
                     sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &system.machine(), 3.0);
  const std::uint64_t bytes = 256 * MiB;
  space.Map(0x10000000, bytes, "heap");
  space.TouchRange(0x10000000, 0x10000000 + bytes, false, 0);
  damon::MonitoringAttrs attrs;
  damon::DamonContext ctx(attrs);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(&space));
  system.RegisterDaemon([&ctx](SimTimeUs now, SimTimeUs quantum) {
    return ctx.Step(now, quantum);
  });
  const SimTimeUs horizon = (quick ? 60 : 600) * kUsPerSec;
  const auto t0 = Clock::now();
  system.Run(horizon);
  const auto t1 = Clock::now();
  if (system.Now() < horizon) Die("idle system stopped early");
  if (ctx.TotalRegions() == 0) Die("idle system never sampled");
  m->idle_sim_us_per_wall_s =
      static_cast<double>(system.Now()) / Seconds(t0, t1);
}

void AppendJson(const Metrics& m, bool quick) {
  const char* path = "BENCH_sim.json";
  std::string existing;
  if (std::FILE* f = std::fopen(path, "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
      existing.append(buf, n);
    std::fclose(f);
  }
  while (!existing.empty() &&
         (existing.back() == '\n' || existing.back() == ' '))
    existing.pop_back();
  std::string out;
  if (existing.size() > 1 && existing.back() == ']') {
    existing.pop_back();
    while (!existing.empty() &&
           (existing.back() == '\n' || existing.back() == ' '))
      existing.pop_back();
    out = existing + ",\n";
  } else {
    out = "[\n";
  }
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "  {\"bench\": \"micro_sim\", \"mode\": \"%s\", "
      "\"pages_sampled_per_s\": %.3e, \"deactivate_pages_per_s\": %.3e, "
      "\"reclaim_scan_pages_per_s\": %.3e, \"tier_scan_pages_per_s\": %.3e, "
      "\"mkold_pairs_per_s\": %.3e, \"find_vma_lookups_per_s\": %.3e, "
      "\"monitor_steps_per_s\": %.3e, \"idle_sim_us_per_wall_s\": %.3e}\n]\n",
      quick ? "quick" : "full", m.pages_sampled_per_s,
      m.deactivate_pages_per_s, m.reclaim_scan_pages_per_s,
      m.tier_scan_pages_per_s, m.mkold_pairs_per_s, m.find_vma_lookups_per_s,
      m.monitor_steps_per_s, m.idle_sim_us_per_wall_s);
  out += buf;
  if (std::FILE* f = std::fopen(path, "wb")) {
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("\ntrajectory entry appended to %s\n", path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick =
      argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  std::printf("==============================================================\n");
  std::printf("micro_sim — sim-core page-sweep & stepping throughput\n");
  std::printf("mode: %s\n", quick ? "quick" : "full");
  std::printf("==============================================================\n");

  Metrics m;
  std::uint64_t pages[3] = {0, 0, 0};
  double wall[3] = {0.0, 0.0, 0.0};
  BenchDeactivate(quick, &m, &pages[0], &wall[0]);
  BenchReclaimScan(quick, &m, &pages[1], &wall[1]);
  BenchTierScan(quick, &m, &pages[2], &wall[2]);
  m.pages_sampled_per_s =
      static_cast<double>(pages[0] + pages[1] + pages[2]) /
      (wall[0] + wall[1] + wall[2]);
  BenchMkOld(quick, &m);
  BenchFindVma(quick, &m);
  BenchMonitor(quick, &m);
  BenchIdleSystem(quick, &m);

  std::printf("%-28s %14.3e pages/s\n", "deactivate sweep",
              m.deactivate_pages_per_s);
  std::printf("%-28s %14.3e pages/s\n", "reclaim CLOCK scan",
              m.reclaim_scan_pages_per_s);
  std::printf("%-28s %14.3e pages/s\n", "tier aging scan",
              m.tier_scan_pages_per_s);
  std::printf("%-28s %14.3e pages/s  <- headline\n", "pages sampled (aggregate)",
              m.pages_sampled_per_s);
  std::printf("%-28s %14.3e pairs/s\n", "MkOld+IsYoung", m.mkold_pairs_per_s);
  std::printf("%-28s %14.3e lookups/s\n", "FindVma (512 VMAs)",
              m.find_vma_lookups_per_s);
  std::printf("%-28s %14.3e steps/s\n", "monitor sampling pass",
              m.monitor_steps_per_s);
  std::printf("%-28s %14.3e sim-us/s\n", "idle System stepping",
              m.idle_sim_us_per_wall_s);

  AppendJson(m, quick);
  return 0;
}
