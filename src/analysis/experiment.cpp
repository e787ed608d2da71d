#include "analysis/experiment.hpp"

#include <cmath>

#include "damon/monitor.hpp"
#include "damon/primitives.hpp"
#include "damos/engine.hpp"
#include "sim/system.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace daos::analysis {

std::string_view ConfigName(Config config) {
  switch (config) {
    case Config::kBaseline:
      return "baseline";
    case Config::kRec:
      return "rec";
    case Config::kPrec:
      return "prec";
    case Config::kThp:
      return "thp";
    case Config::kEthp:
      return "ethp";
    case Config::kPrcl:
      return "prcl";
    case Config::kSchemes:
      return "schemes";
  }
  return "?";
}

std::vector<damos::Scheme> EthpSchemes() {
  return {damos::Scheme::EthpHugepage(5.0),
          damos::Scheme::EthpNohugepage(7 * kUsPerSec)};
}

std::vector<damos::Scheme> PrclSchemes(SimTimeUs min_age) {
  return {damos::Scheme::Prcl(min_age)};
}

namespace {

bool NeedsMonitoring(Config config) {
  switch (config) {
    case Config::kRec:
    case Config::kPrec:
    case Config::kEthp:
    case Config::kPrcl:
    case Config::kSchemes:
      return true;
    default:
      return false;
  }
}

/// Deterministic standard-normal draw (Box-Muller) for run-to-run noise.
double GaussianDraw(Rng& rng) {
  const double u1 = std::max(1e-12, rng.NextDouble());
  const double u2 = rng.NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

}  // namespace

ExperimentResult RunWorkload(const workload::WorkloadProfile& profile,
                             Config config, const ExperimentOptions& options,
                             const std::vector<damos::Scheme>* custom_schemes,
                             damon::Recorder* recorder) {
  const sim::MachineSpec guest = options.host.GuestOf();
  const sim::ThpMode thp =
      config == Config::kThp ? sim::ThpMode::kAlways : sim::ThpMode::kNever;
  sim::System system(guest, options.swap, thp, options.quantum);
  if (options.tiers.tiered()) {
    // Must precede AttachTelemetry (tier instruments bind only when the
    // machine is tiered) and any mapping (geometry is frozen afterwards).
    std::string tier_error;
    if (!DAOS_CHECK(system.machine().SetTierGeometry(options.tiers,
                                                     &tier_error))) {
      ExperimentResult failed;
      failed.workload = profile.name;
      failed.config = config;
      return failed;
    }
    system.machine().set_tier_policy(options.tier_policy);
  }

  // Every run carries the unified telemetry plane; the snapshot taken at
  // the end outlives the registry and ships in the result.
  telemetry::MetricsRegistry registry;
  system.AttachTelemetry(&registry);

  sim::Process& proc = system.AddProcess(
      workload::ToProcessParams(profile),
      workload::MakeSource(profile, options.seed));
  // The tap sees the stream from the very first touch: BuildLayout runs
  // inside the first quantum, after this point.
  if (options.record_tap != nullptr) proc.space().SetAccessTap(options.record_tap);

  std::unique_ptr<damon::DamonContext> ctx;
  damos::SchemesEngine engine;
  if (NeedsMonitoring(config)) {
    ctx = std::make_unique<damon::DamonContext>(
        options.attrs, options.seed * 7919 + 13,
        system.machine().costs().monitor_interference_us);
    if (config == Config::kPrec) {
      ctx->AddTarget(
          std::make_unique<damon::PaddrPrimitives>(
              &system.machine(),
              system.machine().costs().monitor_check_paddr_us));
    } else {
      ctx->AddTarget(std::make_unique<damon::VaddrPrimitives>(
          &proc.space(), system.machine().costs().monitor_check_us));
    }

    std::vector<damos::Scheme> schemes;
    if (custom_schemes != nullptr) {
      schemes = *custom_schemes;
    } else if (config == Config::kEthp) {
      schemes = EthpSchemes();
    } else if (config == Config::kPrcl) {
      schemes = PrclSchemes();
    }
    ctx->BindTelemetry(registry);
    if (!schemes.empty()) {
      engine.Install(std::move(schemes));
      engine.Attach(*ctx);
      // The machine supplies the governor's cost model (bandwidth-derived
      // migration costs) and watermark metric. Disarmed policies make this
      // a no-op for the pre-governor scheme sets.
      engine.SetMachine(&system.machine());
      engine.BindTelemetry(registry);
    }
    if (recorder != nullptr) recorder->Attach(*ctx);

    system.RegisterDaemon([&ctx](SimTimeUs now, SimTimeUs quantum) {
      return ctx->Step(now, quantum);
    });
  }

  const sim::SystemMetrics metrics = system.Run(options.max_time);

  ExperimentResult result;
  result.workload = profile.name;
  result.config = config;
  const sim::ProcessMetrics& pm = metrics.processes.front();
  result.runtime_s = pm.runtime_s;
  result.finished = pm.finished;
  result.avg_rss_bytes = pm.avg_rss_bytes;
  result.peak_rss_bytes = pm.peak_rss_bytes;
  result.major_faults = pm.major_faults;
  result.interference_s = pm.interference_s;
  if (ctx) {
    registry.GetGauge("damon.ctx0.cpu_fraction")
        .Set(ctx->CpuFraction(
            static_cast<SimTimeUs>(metrics.elapsed_s * kUsPerSec)));
  }
  result.telemetry = registry.Snapshot();
  // Read back through the telemetry plane — the registry, not the private
  // counters struct, is the source all consumers share.
  result.monitor_cpu_fraction = result.telemetry.Value("damon.ctx0.cpu_fraction");
  for (const damos::Scheme& s : engine.schemes())
    result.scheme_stats.push_back(s.stats());

  if (options.apply_runtime_noise && profile.noise > 0.0) {
    // System noise the simulator cannot produce on its own (co-tenancy,
    // frequency scaling, ...). Deterministic per (workload, seed).
    Rng noise_rng(options.seed * 1000003 +
                  std::hash<std::string>{}(profile.name));
    result.runtime_s *= 1.0 + profile.noise * GaussianDraw(noise_rng);
  }
  return result;
}

autotune::TrialRunner WorkloadTrial(const workload::WorkloadProfile& profile,
                                    const ExperimentOptions& options) {
  return [profile, options](const damos::Scheme* scheme) {
    ExperimentResult r;
    if (scheme == nullptr) {
      r = RunWorkload(profile, Config::kBaseline, options);
    } else {
      const std::vector<damos::Scheme> schemes{*scheme};
      r = RunWorkload(profile, Config::kSchemes, options, &schemes);
    }
    return autotune::TrialMeasurement{r.runtime_s, r.avg_rss_bytes};
  };
}

}  // namespace daos::analysis
