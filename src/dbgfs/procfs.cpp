#include "dbgfs/procfs.hpp"

#include <cstdio>

#include "sim/system.hpp"
#include "util/strings.hpp"

namespace daos::dbgfs {

ProcFs::ProcFs(sim::System* system, PseudoFs* fs, std::string root)
    : system_(system), fs_(fs), root_(std::move(root)) {
  Refresh();
}

void ProcFs::Refresh() {
  for (auto& proc : system_->processes()) {
    sim::Process* p = proc.get();
    const std::string dir = root_ + "/" + std::to_string(p->pid());
    if (fs_->Exists(dir + "/status")) continue;
    fs_->RegisterFile(
        dir + "/status",
        [p] {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "Name:\t%s\nVmSize:\t%llu kB\nVmRSS:\t%llu kB\n",
                        p->name().c_str(),
                        static_cast<unsigned long long>(
                            p->space().mapped_bytes() / 1024),
                        static_cast<unsigned long long>(
                            p->ReadRssBytes() / 1024));
          return std::string(buf);
        },
        nullptr);
    fs_->RegisterFile(
        dir + "/statm",
        [p] {
          char buf[64];
          std::snprintf(
              buf, sizeof buf, "%llu %llu\n",
              static_cast<unsigned long long>(p->space().mapped_bytes() /
                                              kPageSize),
              static_cast<unsigned long long>(p->space().resident_pages()));
          return std::string(buf);
        },
        nullptr);
  }
}

std::uint64_t ProcFs::ReadRssBytes(int pid) const {
  const auto content =
      fs_->Read(root_ + "/" + std::to_string(pid) + "/status");
  if (!content) return 0;
  for (std::string_view line : SplitChar(*content, '\n')) {
    if (!StartsWith(line, "VmRSS:")) continue;
    const auto tokens = SplitWhitespace(line.substr(6));
    if (tokens.empty()) return 0;
    return ParseU64(tokens[0]).value_or(0) * 1024;
  }
  return 0;
}

}  // namespace daos::dbgfs
