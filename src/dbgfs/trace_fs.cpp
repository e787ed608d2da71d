#include "dbgfs/trace_fs.hpp"

#include <cstdio>

#include "util/strings.hpp"

namespace daos::dbgfs {

TraceFs::TraceFs(PseudoFs* fs, sim::AddressSpace* space, trace::TraceMeta meta)
    : space_(space), meta_(std::move(meta)), mount_(fs, "/trace") {
  mount_.File(
      "record",
      [this] { return std::string(recording_ ? "on\n" : "off\n"); },
      [this](std::string_view content, std::string* error) {
        const std::string_view arg = TrimWhitespace(content);
        if (arg == "on") {
          // Re-arming restarts the capture: a fresh writer, same header.
          writer_ = std::make_unique<trace::TraceWriter>(meta_);
          space_->SetAccessTap(writer_.get());
          recording_ = true;
          return true;
        }
        if (arg == "off") {
          space_->SetAccessTap(nullptr);
          recording_ = false;
          return true;
        }
        if (error != nullptr)
          *error = "line 1: expected \"on\" or \"off\"";
        return false;
      });
  mount_.File(
      "status",
      [this] {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "recording %s\nevents %llu\nchunks %llu\nbody_bytes "
                      "%llu\n",
                      recording_ ? "on" : "off",
                      writer_ ? static_cast<unsigned long long>(
                                    writer_->events())
                              : 0ULL,
                      writer_ ? static_cast<unsigned long long>(
                                    writer_->chunks())
                              : 0ULL,
                      writer_ ? static_cast<unsigned long long>(
                                    writer_->body_bytes())
                              : 0ULL);
        return std::string(buf);
      },
      nullptr);
  mount_.File(
      "data",
      [this] {
        // An unarmed plane serializes as an empty-but-valid trace, so
        // consumers can always round-trip what they read here.
        if (writer_ == nullptr) {
          return SerializeTrace(trace::Trace{meta_, {}});
        }
        return writer_->Finish();
      },
      nullptr);
}

TraceFs::~TraceFs() {
  if (recording_) space_->SetAccessTap(nullptr);
}

}  // namespace daos::dbgfs
