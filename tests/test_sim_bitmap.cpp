// Page-state bitmap properties and sim-core bit-identity pins.
//
// The packed-bitmap core stores page flags as per-VMA uint64_t bit planes,
// so the interesting edge cases are the ones a flat struct array never had:
// VMA sizes that are not a multiple of 64 pages (partial tail words),
// range operations whose bounds land mid-word, THP collapse/split flipping
// 512 bits that may straddle words at odd offsets (unaligned VMA bases),
// and the monitor primitives at word boundaries.
//
// The digest tests pin the whole stack: monitor snapshots on all 24
// evaluation profiles (vaddr), and on six of them through the paddr
// primitives, must stay bit-identical across sim-core rewrites.
// Goldens were recorded on the pre-overhaul core (16-byte Page structs,
// linear FindVma, dense quantum stepping); regenerate only for an
// intentional behaviour change, with DAOS_UPDATE_GOLDEN=1.
//
// The property tests use a bare Machine (no System), so no environment
// fault plane is attached and DAOS_FAULTS cannot perturb the exact counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "damon/recorder.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "util/hash.hpp"
#include "util/units.hpp"
#include "workload/profile.hpp"

namespace daos::sim {
namespace {

constexpr Addr kBase = 0x10000000;  // 2 MiB aligned

Machine MakeMachine(ThpMode thp = ThpMode::kNever) {
  return Machine(MachineSpec::I3Metal().GuestOf(), SwapConfig::Zram(), thp);
}

// --- partial tail words ------------------------------------------------------

TEST(BitmapTest, NonMultipleOf64VmaFullSweeps) {
  Machine machine = MakeMachine();
  AddressSpace space(1, &machine, 3.0);
  // 1000 pages: 15 full words plus a 40-bit tail.
  const std::uint64_t pages = 1000;
  space.Map(kBase, pages * kPageSize, "odd");
  space.TouchRange(kBase, kBase + pages * kPageSize, false, 0);
  EXPECT_EQ(space.resident_pages(), pages);

  // Every page and only mapped pages: the tail word's spare bits must not
  // leak into any count.
  EXPECT_EQ(space.DeactivateRange(kBase, kBase + pages * kPageSize),
            pages * kPageSize);
  const Vma* vma = space.FindVma(kBase);
  ASSERT_NE(vma, nullptr);
  for (std::uint64_t i = 0; i < pages; ++i) {
    const auto pg = vma->PageAt(kBase + i * kPageSize);
    EXPECT_TRUE(pg.Present());
    EXPECT_TRUE(pg.Deactivated()) << "page " << i;
  }

  std::uint64_t errors = 0;
  EXPECT_EQ(space.PageOutRange(kBase, kBase + pages * kPageSize, 0, &errors),
            pages * kPageSize);
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(space.resident_pages(), 0u);
  EXPECT_EQ(space.swapped_pages(), pages);
}

TEST(BitmapTest, MidWordRangeBounds) {
  Machine machine = MakeMachine();
  AddressSpace space(1, &machine, 3.0);
  const std::uint64_t pages = 1000;
  space.Map(kBase, pages * kPageSize, "odd");
  space.TouchRange(kBase, kBase + pages * kPageSize, false, 0);

  // [5, 937): starts and ends mid-word, spans full words in between.
  const Addr lo = kBase + 5 * kPageSize;
  const Addr hi = kBase + 937 * kPageSize;
  EXPECT_EQ(space.DeactivateRange(lo, hi), (937 - 5) * kPageSize);
  const Vma* vma = space.FindVma(kBase);
  ASSERT_NE(vma, nullptr);
  for (std::uint64_t i = 0; i < pages; ++i) {
    const bool in = i >= 5 && i < 937;
    EXPECT_EQ(vma->PageAt(kBase + i * kPageSize).Deactivated(), in)
        << "page " << i;
  }

  // Page the mid-word range out, then swap a different mid-word slice back
  // in; counts must match the exact page spans.
  EXPECT_EQ(space.PageOutRange(lo, hi, 0), (937 - 5) * kPageSize);
  EXPECT_EQ(space.swapped_pages(), 937 - 5);
  const Addr s_lo = kBase + 63 * kPageSize;
  const Addr s_hi = kBase + 130 * kPageSize;
  EXPECT_EQ(space.SwapInRange(s_lo, s_hi, 0), (130 - 63) * kPageSize);
  EXPECT_EQ(space.swapped_pages(), 937 - 5 - (130 - 63));
  for (std::uint64_t i = 60; i < 135; ++i) {
    const bool resident = i >= 63 && i < 130;
    EXPECT_EQ(space.IsResident(kBase + i * kPageSize), resident)
        << "page " << i;
  }
}

// --- monitor primitives at word boundaries -----------------------------------

TEST(BitmapTest, MkOldIsYoungWordBoundaries) {
  Machine machine = MakeMachine();
  AddressSpace space(1, &machine, 3.0);
  const std::uint64_t pages = 200;
  space.Map(kBase, pages * kPageSize, "mon");
  TouchStats touched;
  // Per-page touches only: IsYoung must reflect the accessed bit alone
  // (TouchPage does not write the range log).
  for (std::uint64_t i = 0; i < pages; ++i)
    space.TouchPage(kBase + i * kPageSize, false, 0, touched);

  for (const std::uint64_t i : {std::uint64_t{63}, std::uint64_t{64},
                                std::uint64_t{65}, std::uint64_t{127},
                                std::uint64_t{128}}) {
    space.MkOld(kBase + i * kPageSize, 0);
  }
  for (std::uint64_t i = 0; i < pages; ++i) {
    const bool cleared = i == 63 || i == 64 || i == 65 || i == 127 || i == 128;
    EXPECT_EQ(space.IsYoung(kBase + i * kPageSize), !cleared) << "page " << i;
  }
  // Re-touch exactly one cleared page; its neighbours must stay old.
  space.TouchPage(kBase + 64 * kPageSize, false, 0, touched);
  EXPECT_TRUE(space.IsYoung(kBase + 64 * kPageSize));
  EXPECT_FALSE(space.IsYoung(kBase + 63 * kPageSize));
  EXPECT_FALSE(space.IsYoung(kBase + 65 * kPageSize));
}

// --- THP collapse/split: 512 bits at a time ---------------------------------

TEST(BitmapTest, ThpCollapseSetsAndSplitClears512Bits) {
  Machine machine = MakeMachine(ThpMode::kAlways);
  AddressSpace space(1, &machine, 3.0);
  const std::uint64_t pages = 1024;  // two full 2 MiB blocks
  space.Map(kBase, pages * kPageSize, "thp");
  TouchStats touched;

  // THP `always`: the first fault in an empty, fully-mapped block collapses
  // the whole thing — 512 present+huge bits set in one operation.
  space.TouchPage(kBase, false, 0, touched);
  EXPECT_EQ(space.resident_pages(), 512u);
  EXPECT_EQ(space.huge_blocks(), 1u);
  EXPECT_EQ(space.bloat_pages(), 511u);
  const Vma* vma = space.FindVma(kBase);
  ASSERT_NE(vma, nullptr);
  for (std::uint64_t i = 0; i < pages; ++i) {
    const auto pg = vma->PageAt(kBase + i * kPageSize);
    EXPECT_EQ(pg.Present(), i < 512) << "page " << i;
    EXPECT_EQ(pg.Huge(), i < 512) << "page " << i;
  }

  // NOHUGEPAGE split: clears the 512 huge bits and frees the never-touched
  // bloat — only the one genuinely touched page survives.
  EXPECT_EQ(space.DemoteRange(kBase, kBase + 512 * kPageSize),
            511 * kPageSize);
  EXPECT_EQ(space.huge_blocks(), 0u);
  EXPECT_EQ(space.bloat_pages(), 0u);
  EXPECT_EQ(space.resident_pages(), 1u);
  Vma* v = space.FindVma(kBase);
  for (std::uint64_t i = 0; i < pages; ++i)
    EXPECT_FALSE(v->PageAt(kBase + i * kPageSize).Huge()) << "page " << i;
  EXPECT_TRUE(v->PageAt(kBase).Present());
}

TEST(BitmapTest, UnalignedVmaBlockSpansCrossWordsMidway) {
  // A VMA whose base is page- but not 2MiB-aligned: block boundaries land
  // at page index 500 inside the VMA (12 pages shy of the aligned base), so
  // the 512-bit huge span starts mid-word and ends mid-word.
  Machine machine = MakeMachine(ThpMode::kAlways);
  AddressSpace space(1, &machine, 3.0);
  const Addr base = kBase + 12 * kPageSize;
  const std::uint64_t pages = 1536 - 12;  // through block 2's start
  space.Map(base, pages * kPageSize, "skew");
  TouchStats touched;
  Vma* vma = space.FindVma(base);
  ASSERT_NE(vma, nullptr);
  // Block 1 is the first fully-covered 2 MiB block: VMA pages [500, 1012).
  ASSERT_TRUE(vma->BlockIsFull(1));
  const auto span = vma->BlockPageSpan(1);
  ASSERT_EQ(span.first, 500u);
  ASSERT_EQ(span.second, 1012u);

  // Faults block 1 huge.
  space.TouchPage(base + 600 * kPageSize, false, 0, touched);
  EXPECT_EQ(space.huge_blocks(), 1u);
  EXPECT_EQ(space.resident_pages(), 512u);
  vma = space.FindVma(base);
  for (std::uint64_t i = 0; i < pages; ++i) {
    const bool in = i >= 500 && i < 1012;
    EXPECT_EQ(vma->PageAt(base + i * kPageSize).Huge(), in) << "page " << i;
  }
  EXPECT_EQ(space.DemoteRange(base, base + pages * kPageSize),
            511 * kPageSize);
  EXPECT_EQ(space.resident_pages(), 1u);
  EXPECT_TRUE(space.IsResident(base + 600 * kPageSize));
}

// --- eviction probation bits across words ------------------------------------

TEST(BitmapTest, DeactivatedBypassesProbationAcrossWords) {
  Machine machine = MakeMachine();
  AddressSpace space(1, &machine, 3.0);
  const std::uint64_t pages = 130;  // spans three words
  space.Map(kBase, pages * kPageSize, "probation");
  space.TouchRange(kBase, kBase + pages * kPageSize, false, 0);
  // Deactivate a mid-word slice; DirectReclaim must take exactly those
  // pages first (deactivated pages skip CLOCK probation).
  space.DeactivateRange(kBase + 60 * kPageSize, kBase + 70 * kPageSize);
  const std::uint64_t evicted = machine.DirectReclaim(10, 0);
  EXPECT_EQ(evicted, 10u);
  for (std::uint64_t i = 0; i < pages; ++i) {
    const bool kept = i < 60 || i >= 70;
    EXPECT_EQ(space.IsResident(kBase + i * kPageSize), kept) << "page " << i;
  }
}

}  // namespace
}  // namespace daos::sim

// --- monitor-snapshot bit-identity over the 24 evaluation profiles -----------

namespace daos {
namespace {

/// Digest of everything the monitor reported: every snapshot's timestamp,
/// target and region rows, in order.
/// tests/golden/monitor_digests.csv was pinned with the decimal basis
/// 1469598103934665603, one digit short of FNV-1a's 14695981039346656037;
/// the digests keep it so the golden file stays valid.
std::uint64_t DigestSnapshots(const std::vector<damon::Snapshot>& snaps) {
  Fnv1a h(1469598103934665603ull);
  h.Mix(snaps.size());
  for (const damon::Snapshot& s : snaps) {
    h.Mix(static_cast<std::uint64_t>(s.at));
    h.Mix(static_cast<std::uint64_t>(s.target_index));
    h.Mix(s.regions.size());
    for (const damon::SnapshotRegion& r : s.regions) {
      h.Mix(r.start);
      h.Mix(r.end);
      h.Mix(r.nr_accesses);
      h.Mix(r.age);
    }
  }
  return h.value();
}

/// Runs each profile under `config` and compares the monitor digests, peak
/// RSS and major faults with tests/golden/<golden_file>.
void ExpectGoldenDigests(analysis::Config config,
                         const std::vector<workload::WorkloadProfile>& profiles,
                         const std::string& golden_file) {
  if (std::getenv("DAOS_FAULTS") != nullptr)
    GTEST_SKIP() << "golden digests assume a fault-free run";

  analysis::ExperimentOptions opt;
  opt.max_time = 12 * kUsPerSec;
  opt.apply_runtime_noise = false;
  opt.seed = 1;

  std::map<std::string, std::string> actual;
  for (const workload::WorkloadProfile& profile : profiles) {
    damon::Recorder recorder;
    const analysis::ExperimentResult r =
        analysis::RunWorkload(profile, config, opt, nullptr, &recorder);
    ASSERT_FALSE(recorder.snapshots().empty()) << profile.name;
    char line[128];
    std::snprintf(line, sizeof line, "%016llx,%llu,%llu",
                  static_cast<unsigned long long>(
                      DigestSnapshots(recorder.snapshots())),
                  static_cast<unsigned long long>(r.peak_rss_bytes),
                  static_cast<unsigned long long>(r.major_faults));
    actual[profile.name] = line;
  }

  const std::string golden_path =
      std::string(DAOS_GOLDEN_DIR) + "/" + golden_file;
  if (std::getenv("DAOS_UPDATE_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(golden_path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << golden_path;
    std::fprintf(f, "workload,snapshot_digest,peak_rss_bytes,major_faults\n");
    for (const auto& [name, line] : actual)
      std::fprintf(f, "%s,%s\n", name.c_str(), line.c_str());
    std::fclose(f);
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }

  std::FILE* f = std::fopen(golden_path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "missing golden " << golden_path
                        << " (run once with DAOS_UPDATE_GOLDEN=1)";
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);  // header
  std::map<std::string, std::string> golden;
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
      line.pop_back();
    const std::size_t comma = line.find(',');
    ASSERT_NE(comma, std::string::npos);
    golden[line.substr(0, comma)] = line.substr(comma + 1);
  }
  std::fclose(f);

  ASSERT_EQ(golden.size(), actual.size());
  for (const auto& [name, line] : actual) {
    ASSERT_TRUE(golden.count(name)) << name;
    EXPECT_EQ(golden[name], line)
        << name << ": monitor snapshots diverged from " << golden_file;
  }
}

TEST(SimCoreGoldenTest, MonitorSnapshotsAll24Profiles) {
  ExpectGoldenDigests(analysis::Config::kRec, workload::AllProfiles(),
                      "monitor_digests.csv");
}

// The physical-address primitives (rmap through the synthetic extent
// table) on six profiles from both suites. Pinned before the batched
// access checks replaced the per-address ones.
TEST(SimCoreGoldenTest, PaddrMonitorSnapshotsSixProfiles) {
  std::vector<workload::WorkloadProfile> profiles;
  for (const char* name :
       {"parsec3/canneal", "parsec3/dedup", "parsec3/freqmine",
        "splash2x/barnes", "splash2x/ocean_ncp", "splash2x/radix"}) {
    const workload::WorkloadProfile* p = workload::FindProfile(name);
    ASSERT_NE(p, nullptr) << name;
    profiles.push_back(*p);
  }
  ExpectGoldenDigests(analysis::Config::kPrec, profiles,
                      "monitor_digests_prec.csv");
}

}  // namespace
}  // namespace daos
