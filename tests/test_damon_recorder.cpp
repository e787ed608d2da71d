#include "damon/recorder.hpp"

#include <gtest/gtest.h>

#include "sim/address_space.hpp"
#include "sim/machine.hpp"

namespace daos::damon {
namespace {

class RecorderTest : public ::testing::Test {
 protected:
  RecorderTest()
      : machine_(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                 sim::SwapConfig::Zram()),
        space_(1, &machine_, 3.0) {
    space_.Map(0x10000000, 64 * MiB, "heap");
    ctx_.AddTarget(std::make_unique<VaddrPrimitives>(&space_));
  }

  void Drive(SimTimeUs from, SimTimeUs until, bool touch_hot) {
    for (SimTimeUs now = from; now < until;
         now += ctx_.attrs().sampling_interval) {
      if (touch_hot)
        space_.TouchRange(0x10000000, 0x10000000 + 8 * MiB, false, now);
      ctx_.Step(now, ctx_.attrs().sampling_interval);
    }
  }

  sim::Machine machine_;
  sim::AddressSpace space_;
  DamonContext ctx_{MonitoringAttrs::PaperDefaults()};
  Recorder recorder_;
};

TEST_F(RecorderTest, RecordsEveryAggregationByDefault) {
  recorder_.Attach(ctx_);
  Drive(0, 2 * kUsPerSec, true);
  // 2 s / 100 ms aggregation = ~20 snapshots (first aggregation boundary
  // timing gives +-1).
  EXPECT_GE(recorder_.snapshots().size(), 18u);
  EXPECT_LE(recorder_.snapshots().size(), 21u);
}

TEST_F(RecorderTest, ThrottledRecording) {
  recorder_.Attach(ctx_, /*every=*/kUsPerSec);
  Drive(0, 3 * kUsPerSec, true);
  EXPECT_LE(recorder_.snapshots().size(), 4u);
  EXPECT_GE(recorder_.snapshots().size(), 2u);
}

TEST_F(RecorderTest, SnapshotsCarryRegionData) {
  recorder_.Attach(ctx_);
  Drive(0, kUsPerSec, true);
  ASSERT_FALSE(recorder_.snapshots().empty());
  const Snapshot& snap = recorder_.snapshots().back();
  EXPECT_EQ(snap.target_index, 0);
  EXPECT_FALSE(snap.regions.empty());
  // The hot head of the heap must show accesses in some region.
  bool hot_seen = false;
  for (const SnapshotRegion& r : snap.regions) {
    if (r.start < 0x10000000 + 8 * MiB && r.nr_accesses > 0) hot_seen = true;
  }
  EXPECT_TRUE(hot_seen);
}

TEST_F(RecorderTest, SnapshotsAreTimeOrdered) {
  recorder_.Attach(ctx_);
  Drive(0, 2 * kUsPerSec, true);
  const auto& snaps = recorder_.snapshots();
  for (std::size_t i = 1; i < snaps.size(); ++i)
    EXPECT_GE(snaps[i].at, snaps[i - 1].at);
}

TEST_F(RecorderTest, WorkingSetEstimateTracksHotSize) {
  recorder_.Attach(ctx_);
  // Populate everything once so the space is resident, then keep only the
  // 8 MiB head hot; after a while the WSS estimate should be far below the
  // mapped 64 MiB and at least cover most of the hot head.
  space_.TouchRange(0x10000000, 0x10000000 + 64 * MiB, false, 0);
  Drive(0, 4 * kUsPerSec, true);
  const std::uint64_t wss = recorder_.LatestWorkingSetBytes();
  EXPECT_GT(wss, 4 * MiB);
  EXPECT_LT(wss, 40 * MiB);
}

TEST_F(RecorderTest, NoSnapshotsNoWss) {
  EXPECT_EQ(recorder_.LatestWorkingSetBytes(), 0u);
}

TEST_F(RecorderTest, RestoreTailReplacesHistoryAndKeepsAppending) {
  recorder_.Attach(ctx_);
  Drive(0, kUsPerSec, true);
  ASSERT_FALSE(recorder_.snapshots().empty());

  std::vector<Snapshot> tail = recorder_.snapshots();
  const std::size_t restored_count = tail.size();
  const SimTimeUs last_at = tail.back().at;
  recorder_.RestoreTail(std::move(tail), recorder_.next());
  EXPECT_EQ(recorder_.snapshots().size(), restored_count);

  Drive(kUsPerSec, 2 * kUsPerSec, true);
  ASSERT_GT(recorder_.snapshots().size(), restored_count);
  EXPECT_GT(recorder_.snapshots()[restored_count].at, last_at);
}

TEST_F(RecorderTest, BoundKeepsTheNewestSnapshots) {
  Recorder full;
  Recorder bounded(5);
  full.Attach(ctx_);
  bounded.Attach(ctx_);
  Drive(0, 2 * kUsPerSec, true);
  const std::vector<Snapshot>& all = full.snapshots();
  ASSERT_GT(all.size(), 5u);
  ASSERT_EQ(bounded.snapshots().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(bounded.snapshots()[i].at, all[all.size() - 5 + i].at);

  // A longer restored history keeps its newest snapshots too.
  bounded.RestoreTail(all, full.next());
  ASSERT_EQ(bounded.snapshots().size(), 5u);
  EXPECT_EQ(bounded.snapshots().front().at, all[all.size() - 5].at);
  EXPECT_EQ(bounded.snapshots().back().at, all.back().at);
}

TEST_F(RecorderTest, BoundBelowTheTargetCountKeepsTheLastTargets) {
  sim::AddressSpace other(2, &machine_, 3.0);
  other.Map(0x10000000, 64 * MiB, "heap");
  ctx_.AddTarget(std::make_unique<VaddrPrimitives>(&other));
  Recorder bounded(1);
  bounded.Attach(ctx_);
  Drive(0, kUsPerSec, true);
  ASSERT_EQ(bounded.snapshots().size(), 1u);
  EXPECT_EQ(bounded.snapshots()[0].target_index, 1);
  EXPECT_FALSE(bounded.snapshots()[0].regions.empty());
}

}  // namespace
}  // namespace daos::damon
