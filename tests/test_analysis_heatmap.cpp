#include "analysis/heatmap.hpp"

#include <gtest/gtest.h>

namespace daos::analysis {
namespace {

damon::Snapshot MakeSnapshot(SimTimeUs at,
                             std::vector<damon::SnapshotRegion> regions,
                             int target = 0) {
  damon::Snapshot s;
  s.at = at;
  s.target_index = target;
  s.regions = std::move(regions);
  return s;
}

TEST(FindActiveSubspaceTest, PicksHeaviestCluster) {
  // Two clusters: a small one near 0 and a heavily-accessed one at 1 TiB.
  std::vector<damon::Snapshot> snaps;
  snaps.push_back(MakeSnapshot(
      0, {{0x1000, 0x1000 + MiB, 1, 0},
          {0x10000000000, 0x10000000000 + 512 * MiB, 15, 0}}));
  const AddrSpan span = FindActiveSubspace(snaps, 0);
  EXPECT_EQ(span.lo, 0x10000000000u);
  EXPECT_EQ(span.hi, 0x10000000000u + 512 * MiB);
}

TEST(FindActiveSubspaceTest, MergesNearbyRanges) {
  std::vector<damon::Snapshot> snaps;
  snaps.push_back(MakeSnapshot(0, {{0, MiB, 5, 0},
                                   {MiB + 64 * MiB, 66 * MiB + MiB, 5, 0}}));
  // Gap of 64 MiB < default 1 GiB merge threshold: single cluster.
  const AddrSpan span = FindActiveSubspace(snaps, 0);
  EXPECT_EQ(span.lo, 0u);
  EXPECT_EQ(span.hi, 66 * MiB + MiB);
}

TEST(FindActiveSubspaceTest, IgnoresZeroAccessRegions) {
  std::vector<damon::Snapshot> snaps;
  snaps.push_back(MakeSnapshot(0, {{0, GiB, 0, 0}, {8 * GiB, 9 * GiB, 3, 0}}));
  const AddrSpan span = FindActiveSubspace(snaps, 0);
  EXPECT_EQ(span.lo, 8 * GiB);
}

TEST(FindActiveSubspaceTest, EmptyInput) {
  const AddrSpan span = FindActiveSubspace({}, 0);
  EXPECT_EQ(span.lo, span.hi);
}

TEST(BuildHeatmapTest, HotRowsAreBrighter) {
  std::vector<damon::Snapshot> snaps;
  for (int t = 0; t < 10; ++t) {
    snaps.push_back(MakeSnapshot(
        t * 100 * kUsPerMs,
        {{0, 32 * MiB, 18, 0},                     // hot low half
         {32 * MiB, 64 * MiB, 1, 0}}));            // cool high half
  }
  const Heatmap map = BuildHeatmap(snaps, 0, 5, 8);
  ASSERT_EQ(map.time_bins, 5u);
  ASSERT_EQ(map.addr_bins, 8u);
  EXPECT_GT(map.At(2, 0), map.At(2, 7));
  EXPECT_NEAR(map.At(2, 0), 18.0, 1e-9);
}

TEST(BuildHeatmapTest, TimeDynamicsCaptured) {
  // Hot region moves from low to high addresses halfway through.
  std::vector<damon::Snapshot> snaps;
  for (int t = 0; t < 10; ++t) {
    const bool late = t >= 5;
    snaps.push_back(MakeSnapshot(
        t * 100 * kUsPerMs,
        {{0, 32 * MiB, late ? 0u : 18u, 0},
         {32 * MiB, 64 * MiB, late ? 18u : 0u, 0}}));
  }
  const Heatmap map = BuildHeatmap(snaps, 0, 10, 8,
                                   AddrSpan{0, 64 * MiB});
  EXPECT_GT(map.At(1, 0), map.At(1, 7));
  EXPECT_LT(map.At(8, 0), map.At(8, 7));
}

TEST(BuildHeatmapTest, ExplicitSpanRespected) {
  std::vector<damon::Snapshot> snaps;
  snaps.push_back(MakeSnapshot(0, {{0, 64 * MiB, 9, 0}}));
  const Heatmap map =
      BuildHeatmap(snaps, 0, 2, 4, AddrSpan{32 * MiB, 64 * MiB});
  EXPECT_EQ(map.addr_lo, 32 * MiB);
  EXPECT_EQ(map.addr_hi, 64 * MiB);
}

TEST(BuildHeatmapTest, WrongTargetFilteredOut) {
  std::vector<damon::Snapshot> snaps;
  snaps.push_back(MakeSnapshot(0, {{0, MiB, 9, 0}}, /*target=*/1));
  const Heatmap map = BuildHeatmap(snaps, 0, 2, 2);
  EXPECT_DOUBLE_EQ(map.MaxCell(), 0.0);
}

TEST(BuildHeatmapTest, EmptyInputSafe) {
  const Heatmap map = BuildHeatmap({}, 0, 4, 4);
  EXPECT_DOUBLE_EQ(map.MaxCell(), 0.0);
}

TEST(RenderAsciiTest, ShapeAndShading) {
  std::vector<damon::Snapshot> snaps;
  for (int t = 0; t < 4; ++t) {
    snaps.push_back(MakeSnapshot(t * 100 * kUsPerMs,
                                 {{0, MiB, 20, 0}, {MiB, 2 * MiB, 0, 0}}));
  }
  const Heatmap map = BuildHeatmap(snaps, 0, 4, 8, AddrSpan{0, 2 * MiB});
  const std::string art = RenderAscii(map);
  // 4 rows of 8 chars + newlines.
  EXPECT_EQ(art.size(), 4 * 9u);
  EXPECT_EQ(art[0], '@');   // hottest cell uses the darkest shade
  EXPECT_EQ(art[7], ' ');   // idle cell is blank
}

}  // namespace
}  // namespace daos::analysis
