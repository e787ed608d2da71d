// A procfs analogue: the paper's runtime "uses another Linux kernel
// pseudo-file system called procfs to read the memory footprint of the
// target workload" (§3.6). Exposes, per process:
//
//   /proc/<pid>/status  VmRSS / VmSize lines (kB, as Linux prints them)
//   /proc/<pid>/statm   "size resident" in pages
#pragma once

#include <cstdint>

#include "dbgfs/pseudo_fs.hpp"

namespace daos::sim {
class System;
}

namespace daos::dbgfs {

class ProcFs {
 public:
  /// Registers files for every process in `system` at construction;
  /// processes added later get none. Both must outlive this object.
  ProcFs(sim::System* system, PseudoFs* fs);

  /// Convenience: reads a pid's RSS in bytes through the filesystem,
  /// the way the runtime's scripts do. Returns 0 for unknown pids.
  std::uint64_t ReadRssBytes(int pid) const;

 private:
  Mount mount_;
};

}  // namespace daos::dbgfs
