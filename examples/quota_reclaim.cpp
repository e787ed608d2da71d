// Quota-bounded proactive reclamation: the DAMOS governor in one example.
//
// The proactive_reclaim example trims a bloated fleet as fast as the
// scheme can find cold regions — all the reclaim I/O lands in the first
// few aggregation windows. Here the same one-line scheme carries three
// governor clauses instead:
//
//   quota_sz=64M        spend at most 64M of reclaim per second
//   prio_weights=1,7,2  spend it on the coldest regions first
//   wmarks=...          and stop entirely once free memory is plentiful
//
// so the trim happens as a smooth, bounded drip, and the scheme switches
// itself off (watermark deactivation) when the job is done.
//
// Build & run:  ./build/examples/quota_reclaim
#include <cstdio>

#include "damon/monitor.hpp"
#include "damos/engine.hpp"
#include "sim/system.hpp"
#include "util/units.hpp"
#include "workload/serverless.hpp"

int main() {
  using namespace daos;

  workload::ServerlessConfig config;
  config.nr_processes = 4;
  config.rss_per_process = 1 * GiB;
  config.working_set_frac = 0.10;  // 90 % of the RSS is bloat

  sim::System system(sim::MachineSpec{"prod", 32, 3.0, 8 * GiB},
                     sim::SwapConfig::Zram(8 * GiB), sim::ThpMode::kNever,
                     5 * kUsPerMs);
  std::vector<sim::Process*> servers;
  for (int i = 0; i < config.nr_processes; ++i) {
    servers.push_back(&system.AddProcess(
        workload::ServerParams(config, i),
        std::make_unique<workload::ServerSource>(config, 90 + i)));
  }

  damon::DamonContext monitor(damon::MonitoringAttrs::PaperDefaults());
  for (sim::Process* server : servers)
    monitor.AddTarget(
        std::make_unique<damon::VaddrPrimitives>(&server->space()));
  damos::SchemesEngine engine;
  engine.SetMachine(&system.machine());  // watermark metric source
  engine.InstallFromText(
      "min max min min 10s max pageout "
      "quota_sz=64M quota_reset_ms=1000 prio_weights=1,7,2 "
      "wmarks=free_mem_rate,650,600,50 wmark_interval_ms=500\n");
  engine.Attach(monitor);
  system.RegisterDaemon(
      [&monitor](SimTimeUs now, SimTimeUs q) { return monitor.Step(now, q); });

  std::printf("%-8s %-14s %-12s %-12s %s\n", "time", "fleet RSS",
              "reclaimed", "free_mem", "scheme");
  for (int tick = 0; tick <= 16; ++tick) {
    std::uint64_t rss = 0;
    for (sim::Process* server : servers) rss += server->ReadRssBytes();
    const auto& quota = engine.schemes()[0].runtime().quota;
    std::printf("%6llus %-14s %-12s %8.1f%%   %s\n",
                static_cast<unsigned long long>(system.Now() / kUsPerSec),
                FormatSize(rss).c_str(),
                FormatSize(quota.total_charged_sz).c_str(),
                system.machine().FreeMemRatePermille() / 10.0,
                engine.schemes()[0].stats().wmark_active ? "active"
                                                         : "inactive");
    system.Run(5 * kUsPerSec);
  }

  std::printf("\nscheme stats:\n%s", engine.StatsText().c_str());
  const auto& st = engine.schemes()[0].stats();
  std::printf(
      "\nthe quota held every window to <=64M; the watermark deactivated "
      "the scheme %llu time(s) once free memory passed 65%%\n",
      static_cast<unsigned long long>(st.nr_wmark_deactivations));
  return 0;
}
