// Trace-plane micro-bench: what does recording cost, how small is the
// trace, and does a replay really reproduce the recorded run?
//
// Records a scenario workload (scenario/kvstore, size-capped in quick
// mode) through the sim's AccessTap under the baseline config, then:
//
//   * measures record overhead (tap armed vs unarmed wall clock),
//   * measures serialize / parse throughput over the captured events,
//   * measures replay throughput by running the trace back through the
//     experiment runner as a `trace:` workload,
//   * checks the replayed run is bit-identical to the recorded one
//     (runtime, RSS trajectory aggregates, fault counts).
//
// Results append a machine-readable entry to BENCH_trace.json in the
// working directory (same trajectory-array schema as BENCH_runner.json).
//
// Build & run:  ./build/bench/micro_trace
#include <cstdio>
#include <string>

#include "analysis/experiment.hpp"
#include "bench/common.hpp"
#include "trace/format.hpp"
#include "trace/writer.hpp"
#include "util/units.hpp"
#include "workload/profile.hpp"

namespace {

using namespace daos;
using bench::Clock;
using bench::Seconds;

workload::WorkloadProfile BenchProfile() {
  workload::WorkloadProfile p = *workload::FindProfile("scenario/kvstore");
  if (!bench::FullMode()) {
    p.data_bytes = 192 * MiB;
    p.runtime_s = 20.0;
  }
  p.noise = 0.0;
  return p;
}

bool Identical(const analysis::ExperimentResult& a,
               const analysis::ExperimentResult& b) {
  return a.runtime_s == b.runtime_s && a.finished == b.finished &&
         a.avg_rss_bytes == b.avg_rss_bytes &&
         a.peak_rss_bytes == b.peak_rss_bytes &&
         a.major_faults == b.major_faults;
}

}  // namespace

int main() {
  bench::PrintHeader("micro_trace",
                     "trace record/replay throughput and fidelity");

  const workload::WorkloadProfile profile = BenchProfile();
  analysis::ExperimentOptions options;
  options.apply_runtime_noise = false;
  options.seed = 7;

  std::printf("workload: %s, %s / %.0f s, seed %llu\n\n",
              profile.name.c_str(), FormatSize(profile.data_bytes).c_str(),
              profile.runtime_s,
              static_cast<unsigned long long>(options.seed));

  // 1. Unarmed run: the baseline the tap overhead is measured against.
  auto t0 = Clock::now();
  const analysis::ExperimentResult bare =
      analysis::RunWorkload(profile, analysis::Config::kBaseline, options);
  auto t1 = Clock::now();
  const double bare_wall = Seconds(t0, t1);

  // 2. Armed run: same seed, tap recording the full stream.
  trace::TraceMeta meta;
  meta.name = profile.name;
  meta.data_bytes = profile.data_bytes;
  meta.runtime_s = profile.runtime_s;
  meta.mem_boundness = profile.mem_boundness;
  meta.thp_gain = profile.thp_gain;
  meta.zram_ratio = profile.zram_ratio;
  trace::TraceWriter writer(meta);
  analysis::ExperimentOptions rec_options = options;
  rec_options.record_tap = &writer;
  t0 = Clock::now();
  const analysis::ExperimentResult recorded =
      analysis::RunWorkload(profile, analysis::Config::kBaseline, rec_options);
  t1 = Clock::now();
  const double record_wall = Seconds(t0, t1);
  const double overhead_pct =
      bare_wall > 0 ? (record_wall / bare_wall - 1.0) * 100.0 : 0.0;

  const std::string blob = writer.Finish();
  const std::uint64_t events = writer.events();
  const double raw_bytes =
      static_cast<double>(events) * trace::kRawEventBytes;
  const double compression =
      blob.empty() ? 0.0 : raw_bytes / static_cast<double>(blob.size());
  std::printf("record:    %llu events, %s encoded (%.2fx vs fixed-width), "
              "tap overhead %.1f%%\n",
              static_cast<unsigned long long>(events),
              FormatSize(blob.size()).c_str(), compression, overhead_pct);

  // 3. Parse and serialize throughput over the captured stream.
  t0 = Clock::now();
  const std::optional<trace::Trace> parsed = trace::ParseTrace(blob);
  t1 = Clock::now();
  if (!parsed.has_value()) {
    std::fprintf(stderr, "FATAL: captured trace does not parse\n");
    return 1;
  }
  const double parse_meps =
      static_cast<double>(events) / Seconds(t0, t1) / 1e6;
  t0 = Clock::now();
  const std::string reblob = trace::SerializeTrace(*parsed);
  t1 = Clock::now();
  const double serialize_meps =
      static_cast<double>(events) / Seconds(t0, t1) / 1e6;
  std::printf("codec:     serialize %.1f M events/s, parse %.1f M events/s, "
              "round-trip %s\n",
              serialize_meps, parse_meps,
              reblob == blob ? "byte-identical" : "MISMATCH (bug!)");

  // 4. Replay through the real `trace:` profile path (file and all).
  const char* trace_path = "/tmp/micro_trace.dtr";
  std::string error;
  if (!trace::WriteTraceFile(trace_path, *parsed, &error)) {
    std::fprintf(stderr, "FATAL: %s\n", error.c_str());
    return 1;
  }
  const std::optional<workload::WorkloadProfile> replay_profile =
      workload::ResolveProfile(std::string("trace:") + trace_path, &error);
  if (!replay_profile.has_value()) {
    std::fprintf(stderr, "FATAL: %s\n", error.c_str());
    return 1;
  }
  t0 = Clock::now();
  const analysis::ExperimentResult replayed = analysis::RunWorkload(
      *replay_profile, analysis::Config::kBaseline, options);
  t1 = Clock::now();
  const double replay_wall = Seconds(t0, t1);
  const double replay_meps =
      static_cast<double>(events) / replay_wall / 1e6;

  const bool identical = Identical(recorded, replayed);
  std::printf("replay:    %.2f s wall (%.1f M events/s), record vs replay "
              "%s\n",
              replay_wall, replay_meps,
              identical ? "bit-identical" : "MISMATCH (bug!)");
  std::printf("fidelity:  runtime %.3f s vs %.3f s, peak RSS %s vs %s, "
              "major faults %llu vs %llu\n",
              recorded.runtime_s, replayed.runtime_s,
              FormatSize(recorded.peak_rss_bytes).c_str(),
              FormatSize(replayed.peak_rss_bytes).c_str(),
              static_cast<unsigned long long>(recorded.major_faults),
              static_cast<unsigned long long>(replayed.major_faults));

  std::string row;
  AppendF(row,
          "{\"bench\": \"micro_trace\", \"events\": %llu, \"bytes\": %zu, "
          "\"compression_x\": %.2f, \"record_overhead_pct\": %.1f, "
          "\"serialize_meps\": %.1f, \"parse_meps\": %.1f, "
          "\"replay_meps\": %.1f, \"bit_identical\": %s}",
          static_cast<unsigned long long>(events), blob.size(), compression,
          overhead_pct, serialize_meps, parse_meps, replay_meps,
          identical ? "true" : "false");
  const bool written = bench::AppendTrajectory("BENCH_trace.json", row);
  return written && identical && reblob == blob ? 0 : 1;
}
