#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <set>

#include "sim/machine.hpp"

namespace daos::workload {
namespace {

WorkloadProfile SmallProfile() {
  WorkloadProfile p;
  p.name = "test/small";
  p.suite = "test";
  p.data_bytes = 64 * MiB;
  p.runtime_s = 10;
  p.groups = {
      GroupSpec{0.25, 0.0, 1.0, 0.3},    // hot
      GroupSpec{0.25, 2.0, 1.0, 0.3},    // warm, 2 s period
      GroupSpec{0.50, -1.0, 0.5, 0.2},   // cold, half-dense
  };
  p.zipf_touches_per_s = 10000;
  return p;
}

class GeneratorTest : public ::testing::Test {
 protected:
  GeneratorTest()
      : machine_(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                 sim::SwapConfig::Zram()),
        space_(1, &machine_, 3.0) {}

  sim::Machine machine_;
  sim::AddressSpace space_;
};

TEST_F(GeneratorTest, LayoutHasThreeVmasWithGaps) {
  SyntheticSource source(SmallProfile(), 1);
  source.BuildLayout(space_);
  ASSERT_EQ(space_.vmas().size(), 3u);
  EXPECT_EQ(space_.vmas()[0].name(), "heap");
  EXPECT_EQ(space_.vmas()[1].name(), "mmap");
  EXPECT_EQ(space_.vmas()[2].name(), "stack");
  // Two big gaps (the paper's observation about real address spaces).
  EXPECT_GT(space_.vmas()[1].start() - space_.vmas()[0].end(), GiB);
  EXPECT_GT(space_.vmas()[2].start() - space_.vmas()[1].end(), GiB);
}

TEST_F(GeneratorTest, FirstQuantumPopulates) {
  const WorkloadProfile p = SmallProfile();
  SyntheticSource source(p, 1);
  source.BuildLayout(space_);
  source.EmitQuantum(space_, 0, 5 * kUsPerMs);
  // Expected RSS: 0.25 + 0.25 + 0.5*0.5 = 0.75 of the 64 MiB heap, plus
  // the fully-populated aux and stack areas.
  const double expected =
      0.75 * static_cast<double>(p.data_bytes) +
      static_cast<double>(SyntheticSource::kAuxBytes +
                          SyntheticSource::kStackBytes);
  const double rss = static_cast<double>(space_.resident_bytes());
  EXPECT_NEAR(rss / expected, 1.0, 0.10);
}

TEST_F(GeneratorTest, ColdDensityShapesBlocks) {
  SyntheticSource source(SmallProfile(), 1);
  source.BuildLayout(space_);
  source.EmitQuantum(space_, 0, 5 * kUsPerMs);
  // Cold group: second half of the heap, density 0.5 -> each block half
  // resident.
  const sim::Vma& heap = space_.vmas()[0];
  const std::size_t last_block = heap.block_count() - 2;
  EXPECT_NEAR(static_cast<double>(heap.BlockResident(last_block)),
              kPagesPerHuge * 0.5, kPagesPerHuge * 0.1);
}

TEST_F(GeneratorTest, HotGroupTouchedEveryQuantum) {
  SyntheticSource source(SmallProfile(), 1);
  source.BuildLayout(space_);
  source.EmitQuantum(space_, 0, 5 * kUsPerMs);
  const Addr hot_page = SyntheticSource::kHeapBase;
  space_.MkOld(hot_page, 10 * kUsPerMs);
  source.EmitQuantum(space_, 20 * kUsPerMs, 5 * kUsPerMs);
  EXPECT_TRUE(space_.IsYoung(hot_page));
}

TEST_F(GeneratorTest, WarmGroupCoveredOncePerPeriod) {
  const WorkloadProfile p = SmallProfile();
  SyntheticSource source(p, 1);
  source.BuildLayout(space_);
  source.EmitQuantum(space_, 0, 5 * kUsPerMs);
  // Probe a page in the middle of the warm group (second quarter of heap).
  const Addr probe = SyntheticSource::kHeapBase + 24 * MiB;
  space_.MkOld(probe, 10 * kUsPerMs);
  // Drive 2.5 periods: the cursor must have swept past the probe.
  bool young = false;
  for (SimTimeUs now = 10 * kUsPerMs; now < 5 * kUsPerSec && !young;
       now += 5 * kUsPerMs) {
    source.EmitQuantum(space_, now, 5 * kUsPerMs);
    young = space_.IsYoung(probe);
  }
  EXPECT_TRUE(young);
}

TEST_F(GeneratorTest, ColdGroupNeverRetouched) {
  SyntheticSource source(SmallProfile(), 1);
  source.BuildLayout(space_);
  source.EmitQuantum(space_, 0, 5 * kUsPerMs);
  const Addr probe = SyntheticSource::kHeapBase + 48 * MiB;  // cold region
  ASSERT_TRUE(space_.IsResident(probe));
  space_.MkOld(probe, 10 * kUsPerMs);
  for (SimTimeUs now = 10 * kUsPerMs; now < 3 * kUsPerSec;
       now += 5 * kUsPerMs) {
    source.EmitQuantum(space_, now, 5 * kUsPerMs);
  }
  EXPECT_FALSE(space_.IsYoung(probe));
}

TEST_F(GeneratorTest, DeterministicForSameSeed) {
  sim::AddressSpace s1(2, &machine_, 3.0), s2(3, &machine_, 3.0);
  SyntheticSource a(SmallProfile(), 77), b(SmallProfile(), 77);
  a.BuildLayout(s1);
  b.BuildLayout(s2);
  for (SimTimeUs now = 0; now < kUsPerSec; now += 5 * kUsPerMs) {
    a.EmitQuantum(s1, now, 5 * kUsPerMs);
    b.EmitQuantum(s2, now, 5 * kUsPerMs);
  }
  EXPECT_EQ(s1.resident_pages(), s2.resident_pages());
  EXPECT_EQ(s1.minor_faults(), s2.minor_faults());
}

TEST_F(GeneratorTest, PhasedPatternMovesHotWindow) {
  WorkloadProfile p = SmallProfile();
  p.pattern = PatternKind::kPhased;
  p.phase_period_s = 0.5;
  SyntheticSource source(p, 5);
  source.BuildLayout(space_);
  source.EmitQuantum(space_, 0, 5 * kUsPerMs);
  // Probe 8 evenly spaced pages across the 16 MiB hot group; the young-set
  // bit pattern identifies the current window position. Over 6 phases the
  // pattern must change at least once.
  const Addr group_base = SyntheticSource::kHeapBase;
  const std::uint64_t group_bytes = 16 * MiB;
  std::set<unsigned> patterns;
  for (SimTimeUs now = 5 * kUsPerMs; now < 3 * kUsPerSec;
       now += 5 * kUsPerMs) {
    for (int i = 0; i < 8; ++i)
      space_.MkOld(group_base + i * (group_bytes / 8), now);
    source.EmitQuantum(space_, now, 5 * kUsPerMs);
    unsigned bits = 0;
    for (int i = 0; i < 8; ++i) {
      if (space_.IsYoung(group_base + i * (group_bytes / 8))) bits |= 1u << i;
    }
    patterns.insert(bits);
  }
  EXPECT_GE(patterns.size(), 2u);  // the window moved
}

TEST_F(GeneratorTest, ScanPatternSlidesWindow) {
  WorkloadProfile p = SmallProfile();
  p.pattern = PatternKind::kScan;
  p.phase_period_s = 1.0;  // full slide across the hot group per second
  SyntheticSource source(p, 5);
  source.BuildLayout(space_);
  source.EmitQuantum(space_, 0, 5 * kUsPerMs);
  // Sample the young-set over the hot group at several times; the covered
  // prefix must differ between early and late phases.
  const Addr group_base = SyntheticSource::kHeapBase;
  const std::uint64_t group_bytes = 16 * MiB;
  auto young_pattern = [&](SimTimeUs now) {
    for (int i = 0; i < 8; ++i)
      space_.MkOld(group_base + i * (group_bytes / 8), now);
    source.EmitQuantum(space_, now, 5 * kUsPerMs);
    unsigned bits = 0;
    for (int i = 0; i < 8; ++i) {
      if (space_.IsYoung(group_base + i * (group_bytes / 8))) bits |= 1u << i;
    }
    return bits;
  };
  std::set<unsigned> patterns;
  for (SimTimeUs now = 5 * kUsPerMs; now < kUsPerSec; now += 50 * kUsPerMs)
    patterns.insert(young_pattern(now));
  EXPECT_GE(patterns.size(), 3u);  // the window visited several positions
}

TEST_F(GeneratorTest, WriteFractionProducesDirtyPages) {
  WorkloadProfile p = SmallProfile();
  p.groups[0].write_frac = 1.0;  // hot group always writes
  SyntheticSource source(p, 9);
  source.BuildLayout(space_);
  for (SimTimeUs now = 0; now < 200 * kUsPerMs; now += 5 * kUsPerMs)
    source.EmitQuantum(space_, now, 5 * kUsPerMs);
  const sim::Vma* heap = space_.FindVma(SyntheticSource::kHeapBase);
  ASSERT_NE(heap, nullptr);
  EXPECT_TRUE(heap->PageAt(SyntheticSource::kHeapBase).Dirty());
}

TEST_F(GeneratorTest, ProcessParamsDerived) {
  const WorkloadProfile p = SmallProfile();
  const sim::ProcessParams params = ToProcessParams(p);
  EXPECT_EQ(params.name, p.name);
  EXPECT_DOUBLE_EQ(params.total_work_us, 10.0 * kUsPerSec);
  EXPECT_DOUBLE_EQ(params.thp_gain, p.thp_gain);
  EXPECT_FALSE(params.run_forever);
}

TEST_F(GeneratorTest, MakeSourceFactoryWorks) {
  auto source = MakeSource(SmallProfile(), 3);
  ASSERT_NE(source, nullptr);
  source->BuildLayout(space_);
  const sim::TouchStats st = source->EmitQuantum(space_, 0, 5 * kUsPerMs);
  EXPECT_GT(st.pages, 0u);
}

}  // namespace
}  // namespace daos::workload
