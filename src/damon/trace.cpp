#include "damon/trace.hpp"

#include <cinttypes>
#include <climits>

#include "util/file.hpp"
#include "util/strings.hpp"

namespace daos::damon {

std::string SerializeTrace(const std::vector<Snapshot>& snapshots) {
  std::string out;
  for (const Snapshot& snap : snapshots) {
    AppendF(out, "T %" PRIu64 " %d %zu\n", snap.at, snap.target_index,
            snap.regions.size());
    for (const SnapshotRegion& r : snap.regions)
      AppendF(out, "R %" PRIu64 " %" PRIu64 " %u %u\n", r.start, r.end,
              r.nr_accesses, r.age);
  }
  return out;
}

std::optional<std::vector<Snapshot>> ParseTrace(std::string_view text) {
  std::vector<Snapshot> snapshots;
  std::uint64_t expected_regions = 0;
  LineCursor lines(text);
  std::string_view line;
  while (lines.Next(&line)) {
    const std::vector<std::string_view> t = SplitWhitespace(line);
    if (t.empty()) continue;
    if (t[0] == "T" && t.size() == 4) {
      if (expected_regions != 0) return std::nullopt;  // short block
      Snapshot& snap = snapshots.emplace_back();
      std::uint32_t target = 0;
      // The index is an int: one above INT_MAX would not write back.
      if (!StoreParsed(ParseU64(t[1]), snap.at) ||
          !StoreParsed(ParseU32(t[2]), target) || target > INT_MAX ||
          !StoreParsed(ParseU64(t[3]), expected_regions))
        return std::nullopt;
      snap.target_index = static_cast<int>(target);
    } else if (t[0] == "R" && t.size() == 5) {
      if (expected_regions == 0) return std::nullopt;  // R outside a block
      SnapshotRegion r;
      if (!StoreParsed(ParseU64(t[1]), r.start) ||
          !StoreParsed(ParseU64(t[2]), r.end) ||
          !StoreParsed(ParseU32(t[3]), r.nr_accesses) ||
          !StoreParsed(ParseU32(t[4]), r.age) || r.end <= r.start)
        return std::nullopt;
      snapshots.back().regions.push_back(r);
      --expected_regions;
    } else {
      return std::nullopt;
    }
  }
  if (expected_regions != 0) return std::nullopt;
  return snapshots;
}

bool WriteTraceFile(const std::string& path,
                    const std::vector<Snapshot>& snapshots) {
  return WriteFile(path, SerializeTrace(snapshots));
}

std::optional<std::vector<Snapshot>> ReadTraceFile(const std::string& path) {
  const std::optional<std::string> text = ReadFile(path);
  return text.has_value() ? ParseTrace(*text) : std::nullopt;
}

}  // namespace daos::damon
