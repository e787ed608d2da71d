// The stateless pseudo-filesystem views.
//
// Each function registers one subsystem's control files under that
// subsystem's fixed directory and returns the Mount that removes them
// again. A view holds no state of its own: every handler reads from or
// writes to the object passed in, which (like `fs`) must outlive the
// returned Mount.
#pragma once

#include "chaos/engine.hpp"
#include "dbgfs/pseudo_fs.hpp"
#include "fault/fault.hpp"
#include "fleet/controller.hpp"
#include "lifecycle/supervisor.hpp"
#include "sim/machine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_buffer.hpp"

namespace daos::dbgfs {

// The chaos campaign engine's control files in the pseudo-filesystem.
//
//   cat /chaos/status         config echo, campaign/violation/eval counters,
//                             per-oracle pass/fail tallies, last repro line
//   echo "run 8" > /chaos/status      run the next 8 generated campaigns
//   cat /chaos/last_repro     one-line repro of the latest violation
//                             ("none" while every oracle has held)
//
// Writes run synchronously on the writing thread — the engine is not
// thread-safe, matching every other dbgfs-backed subsystem.
// Only tests mount /chaos (daos_chaos drives the engine directly); it
// stays so the engine has the string surface every other subsystem has.
Mount MountChaos(PseudoFs* fs, chaos::ChaosEngine* engine);

// The fault-injection control file in the pseudo-filesystem.
//
// Mirrors the kernel's debugfs fault-injection knobs (failslab,
// fail_page_alloc, ...), collapsed into one text file with a line grammar:
//
//   cat /fault               current seed + every known point's spec/stats
//   echo "swap.write_error p=0.2" > /fault        arm a point
//   echo "alloc.frame_fail every=100" > /fault
//   echo "swap.write_error off" > /fault          disarm it
//   echo "seed 42" > /fault                       reseed every stream
//   echo "reset" > /fault                         disarm everything
//
// Writes are all-or-nothing: any bad directive rejects the whole write
// with a line-numbered error and leaves the plane untouched.
Mount MountFault(PseudoFs* fs, fault::FaultPlane* plane);

// The fleet rollout control files in the pseudo-filesystem.
//
// Exposes one FleetController (src/fleet) the way /lifecycle exposes a
// single supervisor:
//
//   cat /fleet/status             rollout state machine, fleet counters,
//                                 and one line per shard
//   echo "canary 0.125"   > /fleet/rollout        (one write, many lines)
//   echo "scheme ..."    >> (same write)
//                                 stage a canary rollout; a rejected spec
//                                 fails the write and changes nothing
//   cat /fleet/rollout            outcome of the most recent rollout
//   cat /fleet/quarantine         "add <i>" per quarantined shard — valid
//                                 input for the write below (round-trips)
//   echo "add 3" > /fleet/quarantine              operator quarantine;
//                                 also "release <i>" and "clear"
Mount MountFleet(PseudoFs* fs, fleet::FleetController* fleet);

// The kdamond lifecycle control files in the pseudo-filesystem.
//
// Exposes one KdamondSupervisor (src/lifecycle) the way the kernel exposes
// DAMON's sysfs "state"/"commit" knobs:
//
//   cat /lifecycle/state          supervisor state machine + counters
//   echo "attrs 5000 100000 1000000 10 1000" > /lifecycle/commit
//   echo "scheme 4K max min max 5s max pageout" >> (same write)
//                                 stage a transactional reconfiguration;
//                                 a rejected bundle fails the write and
//                                 changes nothing
//   cat /lifecycle/checkpoint     capture + return a checkpoint now
//   echo "<checkpoint text>" > /lifecycle/checkpoint
//                                 rebuild the stack from checkpoint text
//
// Reads of /lifecycle/commit return the outcome of the most recent commit
// attempt ("staged", "committed: ...", "rejected: ...").
Mount MountLifecycle(PseudoFs* fs, lifecycle::KdamondSupervisor* supervisor);

// Read-only telemetry files in the pseudo-filesystem.
//
// The kernel DAMON exposes its stats through sysfs/debugfs files read with
// `cat`; this registers the reproduction's equivalent view of the unified
// telemetry plane:
//
//   /telemetry/metrics   Prometheus exposition text of the whole registry
//   /telemetry/events    JSONL dump of the tracepoint ring buffer
//
// Both files render on read — the hot path never formats anything.
Mount MountTelemetry(PseudoFs* fs, const telemetry::MetricsRegistry* registry,
                     const telemetry::TraceBuffer* trace);

// Debugfs view of the machine's tiered-memory substrate:
//
//   /tier/status    (read-only)  per-tier occupancy, policy, migration and
//                                hot-miss counters — Machine::TierStatusText
//   /tier/geometry  (read/write) the installed TierGeometry in the same
//                                `<kind> <capacity> [lat=..] [bw=..]` grammar
//                                ParseTierGeometry accepts; writes are
//                                rejected with line-accurate errors, and any
//                                write while frames are in use fails like
//                                offlining populated memory would
Mount MountTier(PseudoFs* fs, sim::Machine* machine);

}  // namespace daos::dbgfs
