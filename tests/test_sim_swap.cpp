#include "sim/swap.hpp"

#include <gtest/gtest.h>

namespace daos::sim {
namespace {

TEST(SwapConfigTest, FactoryKinds) {
  EXPECT_EQ(SwapConfig::Zram().kind, SwapKind::kZram);
  EXPECT_EQ(SwapConfig::File().kind, SwapKind::kFile);
  EXPECT_EQ(SwapConfig::Nvm().kind, SwapKind::kNvm);
  EXPECT_EQ(SwapConfig::None().kind, SwapKind::kNone);
}

TEST(SwapConfigTest, ZramLivesInDram) {
  EXPECT_TRUE(SwapConfig::Zram().occupies_dram);
  EXPECT_FALSE(SwapConfig::File().occupies_dram);
  EXPECT_FALSE(SwapConfig::Nvm().occupies_dram);
}

TEST(SwapConfigTest, LatencyOrdering) {
  // zram must be much faster to read than file swap; NVM writes slower
  // than reads (the paper's asymmetry note).
  EXPECT_LT(SwapConfig::Zram().page_in_us, SwapConfig::File().page_in_us);
  EXPECT_LT(SwapConfig::Nvm().page_in_us, SwapConfig::Nvm().page_out_us);
}

TEST(SwapDeviceTest, DisabledRejectsStores) {
  SwapDevice dev(SwapConfig::None());
  EXPECT_FALSE(dev.Enabled());
  EXPECT_FALSE(dev.StorePage(3.0));
}

TEST(SwapDeviceTest, StoreAndReleaseAccounting) {
  SwapDevice dev(SwapConfig::Zram(1 * MiB));
  EXPECT_TRUE(dev.StorePage(2.0));
  EXPECT_EQ(dev.used_slots(), 1u);
  EXPECT_EQ(dev.stored_bytes(), kPageSize / 2);
  dev.ReleasePage(2.0);
  EXPECT_EQ(dev.used_slots(), 0u);
  EXPECT_EQ(dev.stored_bytes(), 0u);
}

TEST(SwapDeviceTest, CompressionRatioShrinksFootprint) {
  SwapDevice dev(SwapConfig::Zram(1 * MiB));
  ASSERT_TRUE(dev.StorePage(4.0));
  EXPECT_EQ(dev.stored_bytes(), kPageSize / 4);
}

TEST(SwapDeviceTest, RatioBelowOneClamped) {
  SwapDevice dev(SwapConfig::Zram(1 * MiB));
  ASSERT_TRUE(dev.StorePage(0.5));  // incompressible page
  EXPECT_EQ(dev.stored_bytes(), kPageSize);
}

TEST(SwapDeviceTest, CapacityEnforced) {
  // 2 uncompressed pages fit, a third does not.
  SwapDevice dev(SwapConfig{SwapKind::kFile, 2 * kPageSize, 90, 35, false});
  EXPECT_TRUE(dev.StorePage(1.0));
  EXPECT_TRUE(dev.StorePage(1.0));
  EXPECT_FALSE(dev.StorePage(1.0));
  EXPECT_EQ(dev.used_slots(), 2u);
}

TEST(SwapDeviceTest, CompressionStretchesCapacity) {
  SwapDevice dev(SwapConfig{SwapKind::kZram, 2 * kPageSize, 6, 4, true});
  // At ratio 2.0, four pages fit where two uncompressed would.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(dev.StorePage(2.0));
  EXPECT_FALSE(dev.StorePage(2.0));
}

TEST(SwapDeviceTest, DramBytesOnlyForZram) {
  SwapDevice zram(SwapConfig::Zram(1 * MiB));
  SwapDevice file(SwapConfig::File(1 * MiB));
  ASSERT_TRUE(zram.StorePage(2.0));
  ASSERT_TRUE(file.StorePage(2.0));
  EXPECT_GT(zram.dram_bytes(), 0u);
  EXPECT_EQ(file.dram_bytes(), 0u);
}

TEST(SwapDeviceTest, InOutCounters) {
  SwapDevice dev(SwapConfig::Zram(1 * MiB));
  dev.StorePage(3.0);
  dev.StorePage(3.0);
  dev.CountPageIn();
  EXPECT_EQ(dev.total_outs(), 2u);
  EXPECT_EQ(dev.total_ins(), 1u);
}

TEST(SwapDeviceTest, ReleaseBelowZeroSaturates) {
  SwapDevice dev(SwapConfig::Zram(1 * MiB));
  dev.ReleasePage(3.0);
  EXPECT_EQ(dev.used_slots(), 0u);
  EXPECT_EQ(dev.stored_bytes(), 0u);
}

}  // namespace
}  // namespace daos::sim
