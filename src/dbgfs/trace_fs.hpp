// The trace record/replay control files in the pseudo-filesystem.
//
// The record side of the trace plane (DESIGN §11), driven the way the
// paper's runtime drives everything — strings through files:
//
//   echo "on" > /trace/record        arm a fresh TraceWriter on the space
//   echo "off" > /trace/record       disarm (the captured trace is kept)
//   cat /trace/record                "on" | "off"
//   cat /trace/status                recording state + event/chunk/byte counts
//   cat /trace/data                  the serialized daos-trace v1 blob
//
// Writes are rejected (write() fails, line-accurate error) on anything
// but "on"/"off". Arming while armed restarts the capture from scratch.
#pragma once

#include <memory>
#include <string>

#include "dbgfs/pseudo_fs.hpp"
#include "sim/address_space.hpp"
#include "trace/writer.hpp"

namespace daos::dbgfs {

class TraceFs {
 public:
  /// Registers /trace/record, /trace/status and /trace/data on `fs`,
  /// recording `space`. `meta` seeds the captured trace's header. Both
  /// pointers must outlive this object.
  TraceFs(PseudoFs* fs, sim::AddressSpace* space,
          trace::TraceMeta meta = trace::TraceMeta{});
  ~TraceFs();

  TraceFs(const TraceFs&) = delete;
  TraceFs& operator=(const TraceFs&) = delete;

  bool recording() const noexcept { return recording_; }
  /// The live writer (null until first armed).
  trace::TraceWriter* writer() noexcept { return writer_.get(); }

 private:
  sim::AddressSpace* space_;
  trace::TraceMeta meta_;
  std::unique_ptr<trace::TraceWriter> writer_;
  bool recording_ = false;
  Mount mount_;  // last: its files capture `this`
};

}  // namespace daos::dbgfs
