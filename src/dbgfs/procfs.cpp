#include "dbgfs/procfs.hpp"

#include <cstdio>

#include "sim/system.hpp"
#include "util/strings.hpp"

namespace daos::dbgfs {

ProcFs::ProcFs(sim::System* system, PseudoFs* fs) : mount_(fs, "/proc") {
  for (auto& proc : system->processes()) {
    sim::Process* p = proc.get();
    const std::string pid = std::to_string(p->pid());
    mount_.File(
        pid + "/status",
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
    mount_.File(
        pid + "/statm",
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
  const auto content = mount_.Read(std::to_string(pid) + "/status");
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
