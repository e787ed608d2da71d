// Versioned checkpoint serialization for one kdamond's full monitoring
// state (lifecycle pillar 2).
//
// A checkpoint captures everything the monitor/engine/governor stack has
// *learned* — region splits with ages and access counts, the RNG stream,
// scheduling deadlines, per-scheme stats, failure-backoff runtime,
// governor quota charges and watermark phase, and the recorder's whole
// history — so a supervisor can rebuild a crashed kdamond exactly from the
// last snapshot instead of cold-starting. Restoring at the capture time
// continues bit-identically (pinned by test_checkpoint_roundtrip);
// restoring after a crash converges within one aggregation window (pinned
// by test_lifecycle).
//
// The format is line-oriented text, "daos-checkpoint v1" first, one
// record per line, doubles as hex-floats ("%a") for exact round-trips.
// One record walk in checkpoint.cpp defines it for both the writer and the
// parser. Parsing is all-or-nothing with line-accurate errors, like every
// other text surface of this repo (schemes, /fault).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "damon/attrs.hpp"
#include "damon/monitor.hpp"
#include "damon/recorder.hpp"
#include "damos/engine.hpp"
#include "damos/scheme.hpp"

namespace daos::lifecycle {

inline constexpr int kCheckpointVersion = 1;
inline constexpr std::string_view kCheckpointMagic = "daos-checkpoint";

/// One monitoring target's learned region state. The primitives themselves
/// are not serializable (they point at live sim objects); the restore side
/// recreates them from the address spaces the supervisor monitors and
/// installs these regions on top.
struct CheckpointTarget {
  std::vector<damon::Region> regions;
};

struct Checkpoint {
  int version = kCheckpointVersion;
  SimTimeUs at = 0;  // capture time (sim clock)
  damon::MonitoringAttrs attrs;
  damon::MonitorSchedState sched;
  std::vector<CheckpointTarget> targets;
  bool engine_disarmed = false;
  // Bounds, policy, stats and runtime: a scheme carries all of its state.
  std::vector<damos::Scheme> schemes;
  // The recorder's whole history, oldest first. A supervised recorder keeps
  // at most kRecorderTailMax snapshots, so restore loses none of it.
  SimTimeUs recorder_every = 0;
  SimTimeUs recorder_next = 0;
  std::vector<damon::Snapshot> recorder_tail;
};

std::string SerializeCheckpoint(const Checkpoint& cp);

struct CheckpointError {
  int line_number = 0;  // 1-based line within the input text
  std::string message;
};

/// All-or-nothing parse; nullopt + a line-accurate `*error` on malformed,
/// truncated, or version-skewed input.
std::optional<Checkpoint> ParseCheckpoint(std::string_view text,
                                          CheckpointError* error = nullptr);

/// A supervised recorder's bound (newest kept): all a checkpoint carries.
inline constexpr std::size_t kRecorderTailMax = 256;

/// Captures the live stack, the recorder whole. `recorder` may be null.
Checkpoint CaptureCheckpoint(const damon::DamonContext& ctx,
                             const damos::SchemesEngine& engine,
                             const damon::Recorder* recorder, SimTimeUs now);

/// Installs `cp` into a freshly-built stack whose targets were already
/// recreated (same count and order as at capture). Returns false and sets
/// `*error` on a target-count mismatch; the scheduling/engine state is
/// only written on success.
bool RestoreCheckpoint(const Checkpoint& cp, damon::DamonContext& ctx,
                       damos::SchemesEngine& engine,
                       damon::Recorder* recorder, std::string* error);

}  // namespace daos::lifecycle
