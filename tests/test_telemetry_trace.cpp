#include "telemetry/trace_buffer.hpp"

#include <gtest/gtest.h>

#include "telemetry/export.hpp"

namespace daos::telemetry {
namespace {

TraceEvent Ev(SimTimeUs t, std::uint64_t a0 = 0) {
  return TraceEvent{t, EventKind::kReclaim, 0, a0, 0, 0};
}

TEST(TraceBufferTest, FillsInOrder) {
  TraceBuffer buf(4);
  EXPECT_EQ(buf.size(), 0u);
  buf.Push(Ev(1));
  buf.Push(Ev(2));
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.dropped(), 0u);
  const auto events = buf.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, 1u);
  EXPECT_EQ(events[1].time, 2u);
}

TEST(TraceBufferTest, WraparoundKeepsNewestAndCountsDrops) {
  TraceBuffer buf(4);
  for (SimTimeUs t = 1; t <= 10; ++t) buf.Push(Ev(t));
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.pushed(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  const auto events = buf.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and it is the newest 4 that survive.
  EXPECT_EQ(events[0].time, 7u);
  EXPECT_EQ(events[3].time, 10u);
}

TEST(TraceBufferTest, OverflowStressStaysBounded) {
  // The acceptance contract: overflowing by orders of magnitude leaves the
  // buffer at exactly `capacity` events with every overwrite counted —
  // memory use never grows past construction.
  constexpr std::size_t kCap = 1024;
  TraceBuffer buf(kCap);
  constexpr std::uint64_t kPushes = 100'000;
  for (std::uint64_t i = 0; i < kPushes; ++i) buf.Push(Ev(i, i));
  EXPECT_EQ(buf.capacity(), kCap);
  EXPECT_EQ(buf.size(), kCap);
  EXPECT_EQ(buf.pushed(), kPushes);
  EXPECT_GT(buf.dropped(), 0u);
  EXPECT_EQ(buf.dropped(), kPushes - kCap);
  const auto events = buf.Events();
  ASSERT_EQ(events.size(), kCap);
  EXPECT_EQ(events.front().time, kPushes - kCap);
  EXPECT_EQ(events.back().time, kPushes - 1);
}

TEST(TraceBufferTest, ZeroCapacityClampsToOne) {
  TraceBuffer buf(0);
  EXPECT_EQ(buf.capacity(), 1u);
  buf.Push(Ev(1));
  buf.Push(Ev(2));
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.Events().front().time, 2u);
  EXPECT_EQ(buf.dropped(), 1u);
}

TEST(TraceBufferTest, PushIsPodCopyNoAllocation) {
  // The hot-path contract: events are trivially copyable and Push is
  // noexcept — it cannot allocate or format.
  static_assert(std::is_trivially_copyable_v<TraceEvent>);
  TraceBuffer buf(8);
  static_assert(noexcept(buf.Push(TraceEvent{})));
}

TEST(TraceJsonlTest, GoldenOutput) {
  TraceBuffer buf(4);
  buf.Push(TraceEvent{1000, EventKind::kSchemeApply, 2, 4096, 8192, 4096});
  buf.Push(TraceEvent{2000, EventKind::kSwapOut, 0, 64, 64, 0});
  EXPECT_EQ(ToJsonl(buf),
            "{\"t\":1000,\"kind\":\"scheme_apply\",\"id\":2,"
            "\"args\":[4096,8192,4096]}\n"
            "{\"t\":2000,\"kind\":\"swap_out\",\"id\":0,"
            "\"args\":[64,64,0]}\n"
            "{\"pushed\":2,\"dropped\":0}\n");
}

TEST(TraceJsonlTest, ReportsDrops) {
  TraceBuffer buf(1);
  buf.Push(Ev(1));
  buf.Push(Ev(2));
  const std::string out = ToJsonl(buf);
  EXPECT_NE(out.find("{\"pushed\":2,\"dropped\":1}\n"), std::string::npos);
}

}  // namespace
}  // namespace daos::telemetry
