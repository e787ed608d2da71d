#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace daos::telemetry {
namespace {

TEST(MetricsRegistryTest, CounterBasics) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("damon.ctx0.samples");
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsRegistryTest, SameNameSameKindReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x.y");
  Counter& b = reg.GetCounter("x.y");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, KindCollisionThrows) {
  MetricsRegistry reg;
  reg.GetCounter("x.y");
  EXPECT_THROW(reg.GetGauge("x.y"), std::logic_error);
  EXPECT_THROW(reg.GetHistogram("x.y"), std::logic_error);
  reg.GetGauge("g");
  EXPECT_THROW(reg.GetCounter("g"), std::logic_error);
  // The failed registrations must not have clobbered anything.
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistryTest, HistogramReboundWithDifferentBoundsThrows) {
  MetricsRegistry reg;
  reg.GetHistogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(reg.GetHistogram("h", {1.0, 2.0}));
  EXPECT_THROW(reg.GetHistogram("h", {1.0, 3.0}), std::logic_error);
}

TEST(MetricsRegistryTest, Names) {
  MetricsRegistry reg;
  reg.GetCounter("b.counter");
  reg.GetGauge("a.gauge");
  // Names come back sorted (map order).
  EXPECT_EQ(reg.Names(), (std::vector<std::string>{"a.gauge", "b.counter"}));
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.GetGauge("sim.dram_used_bytes");
  g.Set(10.0);
  g.Add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST(MetricsRegistryTest, HistogramBucketBoundaries) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat", {1.0, 10.0, 100.0});
  // `le` semantics: a value equal to a bound lands in that bound's bucket.
  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // <= 1 (boundary)
  h.Observe(1.0001); // <= 10
  h.Observe(10.0);   // <= 10 (boundary)
  h.Observe(99.9);   // <= 100
  h.Observe(100.0);  // <= 100 (boundary)
  h.Observe(101.0);  // +Inf overflow
  EXPECT_EQ(h.bucket_counts(),
            (std::vector<std::uint64_t>{2, 2, 2, 1}));
  EXPECT_EQ(h.count(), 7u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.0 + 101.0, 1e-9);
}

TEST(MetricsRegistryTest, HistogramUnsortedBoundsRejected) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.GetHistogram("bad", {10.0, 1.0}), std::logic_error);
  EXPECT_THROW(reg.GetHistogram("dup", {1.0, 1.0}), std::logic_error);
}

TEST(MetricsRegistryTest, InstrumentAddressesAreStable) {
  // The hot-path contract: a handle resolved at bind time stays valid as
  // the registry grows, so call sites never re-look-up by name.
  MetricsRegistry reg;
  Counter& first = reg.GetCounter("first");
  for (int i = 0; i < 200; ++i)
    reg.GetCounter("filler." + std::to_string(i));
  EXPECT_EQ(&first, &reg.GetCounter("first"));
  first.Add(7);
  EXPECT_EQ(reg.GetCounter("first").value(), 7u);
}

TEST(MetricsRegistryTest, HotPathIsPlainIncrement) {
  // No locks, no allocation, no formatting: Add/Set/Observe are noexcept
  // arithmetic on pre-resolved cells. noexcept is the compile-time proxy —
  // anything that allocated or formatted could not honestly carry it.
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("c");
  Gauge& g = reg.GetGauge("g");
  Histogram& h = reg.GetHistogram("h", {1.0});
  static_assert(noexcept(c.Add(1)));
  static_assert(noexcept(g.Set(1.0)));
  static_assert(noexcept(h.Observe(1.0)));
  // And a tight loop stays exact (no sampling, no saturation).
  for (int i = 0; i < 1'000'000; ++i) c.Add(1);
  EXPECT_EQ(c.value(), 1'000'000u);
}

TEST(MetricsSnapshotTest, SnapshotDetachesAndLooksUp) {
  MetricsRegistry reg;
  reg.GetCounter("damon.ctx0.samples").Add(5);
  reg.GetGauge("damon.ctx0.cpu_us").Set(1.25);
  Histogram& h = reg.GetHistogram("lat", {10.0});
  h.Observe(3.0);
  h.Observe(30.0);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.samples().size(), 3u);
  EXPECT_DOUBLE_EQ(snap.Value("damon.ctx0.samples"), 5.0);
  EXPECT_DOUBLE_EQ(snap.Value("damon.ctx0.cpu_us"), 1.25);
  EXPECT_DOUBLE_EQ(snap.Value("missing", -1.0), -1.0);

  const MetricSample* s = snap.Find("lat");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, InstrumentKind::kHistogram);
  EXPECT_EQ(s->count, 2u);
  EXPECT_EQ(s->buckets, (std::vector<std::uint64_t>{1, 1}));

  // Detached: later registry updates don't leak into the snapshot.
  reg.GetCounter("damon.ctx0.samples").Add(100);
  EXPECT_DOUBLE_EQ(snap.Value("damon.ctx0.samples"), 5.0);
}

}  // namespace
}  // namespace daos::telemetry
