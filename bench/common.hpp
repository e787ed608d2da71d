// Shared plumbing for the figure/table benches.
//
// Every bench regenerates one table or figure of the paper. By default the
// parameter grids are thinned and huge address spaces are capped so the
// whole bench suite completes in minutes; set DAOS_BENCH_FULL=1 for the
// paper-density sweeps (same code paths, only denser grids / full sizes).
// DAOS_BENCH_FULL is the only mode switch: no bench takes a mode flag.
//
// Benches that keep a trajectory append one row per run to a BENCH_*.json
// array through AppendTrajectory, the only writer of those files.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/runner.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"
#include "workload/profile.hpp"

#ifndef DAOS_BUILD_TYPE
#error "bench targets define DAOS_BUILD_TYPE (the CMake build type)"
#endif
#ifndef DAOS_GIT_REVISION
#error "bench targets define DAOS_GIT_REVISION (the configure-time revision)"
#endif

namespace daos::bench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Reports a failed sanity check and exits 1: numbers measured on a broken
/// path must not reach the trajectory.
[[noreturn]] inline void Die(const char* bench, const char* what) {
  std::fprintf(stderr, "%s: sanity check failed: %s\n", bench, what);
  std::exit(1);
}

inline bool FullMode() {
  const char* env = std::getenv("DAOS_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

/// Caps a profile's data size for quick mode (shape-preserving: groups are
/// fractions of the total, so only simulation cost changes).
inline workload::WorkloadProfile CapSize(const workload::WorkloadProfile& p,
                                         std::uint64_t cap = std::uint64_t{3} *
                                                             GiB / 2) {
  if (FullMode() || p.data_bytes <= cap) return p;
  workload::WorkloadProfile out = p;
  out.data_bytes = cap;
  return out;
}

inline analysis::ExperimentOptions DefaultOptions(std::uint64_t seed = 1) {
  analysis::ExperimentOptions opt;
  opt.seed = seed;
  opt.max_time = 1200 * kUsPerSec;
  return opt;
}

inline void PrintHeader(const char* id, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("mode: %s  (set DAOS_BENCH_FULL=1 for paper-density sweeps)\n",
              FullMode() ? "FULL" : "quick");
  std::printf("==============================================================\n");
}

/// The Table 2 hosts.
inline std::vector<sim::MachineSpec> Hosts() {
  return sim::MachineSpec::AllBareMetal();
}

/// Workload subset for quick mode.
inline std::vector<std::string> BenchWorkloads(std::size_t quick_count) {
  std::vector<std::string> names = workload::Figure4Names();
  if (!FullMode() && names.size() > quick_count) names.resize(quick_count);
  return names;
}

/// Appends the grown scenario library (suite "scenario") to a figure's
/// workload list, so the application-shaped profiles ride the same grids
/// as the paper's evaluation set.
inline std::vector<std::string> WithScenarios(std::vector<std::string> names) {
  for (const workload::WorkloadProfile& p : workload::ScenarioProfiles())
    names.push_back(p.name);
  return names;
}


/// Whether `text` is one JSON array: it opens with '[', closes with the
/// ']' that balances it, and nothing follows. Brackets inside strings do
/// not count. A file cut short anywhere fails this check.
inline bool IsJsonArray(std::string_view text) {
  text = TrimWhitespace(text);
  if (text.empty() || text.front() != '[') return false;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if ((c == ']' || c == '}') && --depth == 0) {
      return i + 1 == text.size();
    }
  }
  return false;
}

/// Appends `row`, one JSON object from '{' to '}' (it may span lines), to
/// the trajectory array in `path`, stamped with the provenance every row
/// carries: the host's hardware concurrency, the runner's job count
/// (DAOS_JOBS), the build type, the git revision at configure time
/// ("unknown" outside a checkout) and the bench mode. A missing or blank file
/// starts a fresh array. A file holding anything else is left byte for
/// byte as it was and false is returned: a damaged trajectory is history
/// to recover, not to overwrite. The new array goes to `path`.tmp and is
/// renamed over `path`, so a crash mid-write cannot truncate it either.
inline bool AppendTrajectory(const std::string& path, std::string_view row) {
  const std::string text = ReadFile(path).value_or("");
  std::string_view head = TrimWhitespace(text);  // all but the closing ']'
  if (head.empty()) {
    head = "[";
  } else if (IsJsonArray(head)) {
    head = TrimWhitespace(head.substr(0, head.size() - 1));
  } else {
    std::fprintf(stderr, "%s: not a JSON array; left untouched, row not "
                 "appended\n", path.c_str());
    return false;
  }
  row.remove_suffix(1);  // the closing '}': the stamp goes inside it
  std::string out(head);
  out += head.size() > 1 ? ",\n  " : "\n  ";
  out += row;
  AppendF(out,
          ", \"hardware_concurrency\": %u, \"jobs\": %u, "
          "\"build_type\": \"%s\", \"git_revision\": \"%s\", "
          "\"mode\": \"%s\"}\n]\n",
          std::thread::hardware_concurrency(),
          analysis::ParallelRunner::JobsFromEnv(), DAOS_BUILD_TYPE,
          DAOS_GIT_REVISION, FullMode() ? "full" : "quick");

  const std::string tmp = path + ".tmp";
  if (!WriteFile(tmp, out) || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    std::fprintf(stderr, "%s: cannot write the trajectory\n", path.c_str());
    return false;
  }
  std::printf("\ntrajectory entry appended to %s\n", path.c_str());
  return true;
}

}  // namespace daos::bench
