// daos-trace v1 unit tests (src/trace): codec primitives, whole-trace
// serialization identity, the streaming writer, the /trace debugfs plane,
// and the text-trace ingestion adapters.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dbgfs/pseudo_fs.hpp"
#include "dbgfs/trace_fs.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "trace/format.hpp"
#include "trace/ingest.hpp"
#include "trace/writer.hpp"
#include "util/units.hpp"

namespace daos::trace {
namespace {

// --- codec primitives -------------------------------------------------------

TEST(VarintTest, RoundTripsRepresentativeValues) {
  const std::uint64_t values[] = {0,       1,          127,
                                  128,     300,        16383,
                                  16384,   1u << 31,   1ULL << 40,
                                  ~0ULL,   ~0ULL - 1,  0x8000000000000000ULL};
  for (const std::uint64_t v : values) {
    std::string buf;
    AppendVarint(buf, v);
    std::size_t pos = 0;
    std::uint64_t out = 0;
    ASSERT_TRUE(DecodeVarint(buf, pos, out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, RejectsTruncation) {
  std::string buf;
  AppendVarint(buf, ~0ULL);
  buf.pop_back();
  std::size_t pos = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(DecodeVarint(buf, pos, out));
}

TEST(VarintTest, RejectsOverlongEncoding) {
  // Eleven continuation bytes: no canonical varint is that long.
  const std::string buf(11, '\xff');
  std::size_t pos = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(DecodeVarint(buf, pos, out));
}

TEST(VarintTest, RejectsNonCanonicalTenthByte) {
  // 9 continuation bytes then a 10th byte > 1 would shift bits off the top.
  std::string buf(9, '\xff');
  buf.push_back('\x02');
  std::size_t pos = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(DecodeVarint(buf, pos, out));
}

TEST(ZigZagTest, RoundTripsSignedValues) {
  const std::int64_t values[] = {0, 1, -1, 2, -2, 1 << 20, -(1 << 20),
                                 INT64_MAX, INT64_MIN};
  for (const std::int64_t v : values) EXPECT_EQ(UnZigZag(ZigZag(v)), v);
  // Small magnitudes stay small: the property delta encoding relies on.
  EXPECT_EQ(ZigZag(-1), 1u);
  EXPECT_EQ(ZigZag(1), 2u);
}

TEST(Crc32Test, PinnedCheckValues) {
  // The IEEE 802.3 / zlib check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// --- whole-trace serialization ---------------------------------------------

Trace SampleTrace() {
  Trace t;
  t.meta.name = "sample";
  t.meta.data_bytes = 8 * MiB;
  t.meta.runtime_s = 1.5;
  t.events = {
      {0, TraceOp::kMap, false, 0x10000, 2048, "heap"},
      {0, TraceOp::kTouchRange, true, 0x10000, 2048, ""},
      {5000, TraceOp::kTouchPage, false, 0x10007, 1, ""},
      {5000, TraceOp::kTouchPage, true, 0x10003, 1, ""},
      {10000, TraceOp::kMap, false, 0x40000, 16, "mmap0"},
      {10000, TraceOp::kTouchRange, false, 0x40000, 16, ""},
      {15000, TraceOp::kUnmap, false, 0x40000, 1, ""},
  };
  return t;
}

TEST(TraceFormatTest, SerializeParseSerializeIsIdentity) {
  const Trace t = SampleTrace();
  const std::string text = SerializeTrace(t);
  TraceError error;
  const std::optional<Trace> parsed = ParseTrace(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error.Format();
  EXPECT_EQ(parsed->events, t.events);
  EXPECT_EQ(parsed->meta.name, t.meta.name);
  EXPECT_EQ(parsed->meta.runtime_s, t.meta.runtime_s);  // %a: exact
  EXPECT_EQ(SerializeTrace(*parsed), text);
}

TEST(TraceFormatTest, HeaderPinned) {
  TraceMeta meta;
  meta.name = "pin";
  meta.data_bytes = 1048576;
  meta.runtime_s = 1.5;
  meta.thp_gain = 0.25;
  EXPECT_EQ(SerializeHeader(meta, 7, 2),
            "daos-trace v1\n"
            "name pin\n"
            "page_shift 12\n"
            "quantum_us 5000\n"
            "data_bytes 1048576\n"
            "runtime_s 0x1.8p+0\n"
            "mem_boundness 0x1p-1\n"
            "thp_gain 0x1p-2\n"
            "zram_ratio 0x1.8p+1\n"
            "events 7\n"
            "chunks 2\n"
            "body\n");
}

TEST(TraceFormatTest, ChunkBoundariesAreInvisibleToParse) {
  const Trace t = SampleTrace();
  // 7 events at 3 records per chunk: 3 self-contained chunks, delta state
  // reset at each boundary.
  const std::string text = SerializeTrace(t, /*chunk_records=*/3);
  EXPECT_NE(text.find("chunks 3\n"), std::string::npos);
  TraceError error;
  const std::optional<Trace> parsed = ParseTrace(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error.Format();
  EXPECT_EQ(parsed->events, t.events);
}

TEST(TraceFormatTest, EmptyTraceRoundTrips) {
  const std::string text = SerializeTrace(Trace{});
  const std::optional<Trace> parsed = ParseTrace(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->events.empty());
  EXPECT_EQ(parsed->Duration(), 0u);
}

TEST(TraceFormatTest, LongNameRoundTripsExactly) {
  // The "name" header line outgrows any small fixed formatting buffer; it
  // must be written whole, never truncated or read past its end.
  TraceMeta meta;
  meta.name = std::string(300, 'n');
  const std::string header = SerializeHeader(meta, 0, 0);
  EXPECT_NE(header.find("name " + meta.name + "\n"), std::string::npos);
  TraceError error;
  const std::optional<Trace> parsed = ParseTrace(header, &error);
  ASSERT_TRUE(parsed.has_value()) << error.Format();
  EXPECT_EQ(parsed->meta.name, meta.name);
  EXPECT_TRUE(parsed->events.empty());
}

TEST(TraceFormatTest, FileRoundTrip) {
  const Trace t = SampleTrace();
  const std::string path = ::testing::TempDir() + "/roundtrip.dtr";
  std::string error;
  ASSERT_TRUE(WriteTraceFile(path, t, &error)) << error;
  TraceError terr;
  const std::optional<Trace> loaded = ReadTraceFile(path, &terr);
  ASSERT_TRUE(loaded.has_value()) << terr.Format();
  EXPECT_EQ(loaded->events, t.events);
}

// --- streaming writer -------------------------------------------------------

TEST(TraceWriterTest, MatchesWholeTraceSerialization) {
  const Trace t = SampleTrace();
  TraceWriter writer(t.meta);
  for (const TraceEvent& ev : t.events) writer.Add(ev);
  EXPECT_EQ(writer.events(), t.events.size());
  EXPECT_EQ(writer.Finish(), SerializeTrace(t));
  // Finish() is idempotent.
  EXPECT_EQ(writer.Finish(), SerializeTrace(t));
}

TEST(TraceWriterTest, TapOnRealSpaceCapturesTheStream) {
  sim::Machine machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                       sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &machine, 3.0);
  TraceWriter writer(TraceMeta{});
  space.SetAccessTap(&writer);

  space.Map(0x10000000, 4 * MiB, "heap");
  space.TouchRange(0x10000000, 0x10000000 + 2 * MiB, true, 0);
  sim::TouchStats st;
  space.TouchPage(0x10000000 + 3 * MiB, false, 5000, st);
  space.UnmapVma(0x10000000);
  space.SetAccessTap(nullptr);

  const std::optional<Trace> parsed = ParseTrace(writer.Finish());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->events.size(), 4u);
  const std::vector<TraceEvent>& ev = parsed->events;
  EXPECT_EQ(ev[0].op, TraceOp::kMap);
  EXPECT_EQ(ev[0].name, "heap");
  EXPECT_EQ(ev[0].page, PageOf(0x10000000));
  EXPECT_EQ(ev[0].pages, (4 * MiB) >> kPageShift);
  EXPECT_EQ(ev[1].op, TraceOp::kTouchRange);
  EXPECT_TRUE(ev[1].write);
  EXPECT_EQ(ev[1].pages, (2 * MiB) >> kPageShift);
  EXPECT_EQ(ev[2].op, TraceOp::kTouchPage);
  EXPECT_EQ(ev[2].at, 5000u);
  EXPECT_EQ(ev[3].op, TraceOp::kUnmap);
  // Unmap carries no clock: stamped with the last touch timestamp.
  EXPECT_EQ(ev[3].at, 5000u);
}

// --- /trace debugfs plane ---------------------------------------------------

struct TraceFsTest : ::testing::Test {
  TraceFsTest()
      : machine(sim::MachineSpec{"t", 4, 3.0, 4 * GiB},
                sim::SwapConfig::Zram()),
        space(1, &machine, 3.0),
        trace_fs(&fs, &space) {}

  sim::Machine machine;
  sim::AddressSpace space;
  dbgfs::PseudoFs fs;
  dbgfs::TraceFs trace_fs;
  sim::TouchStats touched;  // stats of touches a test does not inspect
};

TEST_F(TraceFsTest, RecordOnOffCapturesBetween) {
  EXPECT_EQ(fs.Read("/trace/record").value_or(""), "off\n");
  ASSERT_TRUE(fs.Write("/trace/record", "on", nullptr));
  space.Map(0x10000000, 1 * MiB, "heap");
  space.TouchRange(0x10000000, 0x10000000 + 1 * MiB, false, 0);
  ASSERT_TRUE(fs.Write("/trace/record", "off", nullptr));
  // After disarm: not captured.
  space.TouchPage(0x10000000, true, 5000, touched);

  const std::string status = fs.Read("/trace/status").value_or("");
  EXPECT_NE(status.find("recording off"), std::string::npos);
  EXPECT_NE(status.find("events 2"), std::string::npos);

  const std::optional<Trace> parsed =
      ParseTrace(fs.Read("/trace/data").value_or(""));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->events.size(), 2u);
  EXPECT_EQ(parsed->events[0].op, TraceOp::kMap);
  EXPECT_EQ(parsed->events[1].op, TraceOp::kTouchRange);
}

TEST_F(TraceFsTest, GarbageWriteRejectedLineAccurate) {
  std::string error;
  EXPECT_FALSE(fs.Write("/trace/record", "maybe", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_FALSE(trace_fs.recording());
}

TEST_F(TraceFsTest, UnarmedDataIsAValidEmptyTrace) {
  const std::optional<Trace> parsed =
      ParseTrace(fs.Read("/trace/data").value_or(""));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->events.empty());
}

TEST_F(TraceFsTest, RearmRestartsCapture) {
  ASSERT_TRUE(fs.Write("/trace/record", "on", nullptr));
  space.Map(0x10000000, 1 * MiB, "heap");
  ASSERT_TRUE(fs.Write("/trace/record", "on", nullptr));  // restart
  space.TouchPage(0x10000000, false, 0, touched);
  const std::optional<Trace> parsed =
      ParseTrace(fs.Read("/trace/data").value_or(""));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->events.size(), 1u);  // the map fell to the old writer
  EXPECT_EQ(parsed->events[0].op, TraceOp::kTouchPage);
}

// --- ingestion --------------------------------------------------------------

TEST(IngestTest, DetectsDialects) {
  EXPECT_EQ(DetectTraceTextFormat(" L 0421c7f0,4\n"), TraceTextFormat::kLackey);
  EXPECT_EQ(DetectTraceTextFormat("0,r,0x1000,64\n"), TraceTextFormat::kCsv);
  EXPECT_EQ(DetectTraceTextFormat("== banner ==\n S 1000,4\n"),
            TraceTextFormat::kLackey);
  EXPECT_EQ(DetectTraceTextFormat("hello world\n"), TraceTextFormat::kUnknown);
}

TEST(IngestTest, LackeyHappyPath) {
  const char kText[] =
      "== valgrind banner ==\n"
      "I  0400d7d4,8\n"
      " L 0421c7f0,4\n"
      " S 0421c7f4,8\n"
      " M 0421c800,4\n"
      " L 0432c7f0,4\n";
  IngestError error;
  const std::optional<Trace> t =
      IngestText(kText, "lackey-sample", IngestOptions{}, &error);
  ASSERT_TRUE(t.has_value()) << error.message;
  // One synthesized VMA (the gap between the two pages is < 32 MiB) plus
  // the four data accesses; the instruction fetch is skipped.
  ASSERT_EQ(t->events.size(), 5u);
  EXPECT_EQ(t->events[0].op, TraceOp::kMap);
  EXPECT_EQ(t->meta.name, "lackey-sample");
  EXPECT_FALSE(t->events[1].write);  // L
  EXPECT_TRUE(t->events[2].write);   // S
  EXPECT_TRUE(t->events[3].write);   // M
  // The round trip through the binary format is lossless.
  const std::optional<Trace> again = ParseTrace(SerializeTrace(*t));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->events, t->events);
}

TEST(IngestTest, LackeySpreadsOpsOverQuanta) {
  IngestOptions options;
  options.ops_per_quantum = 2;
  const char kText[] =
      " L 1000,4\n L 2000,4\n L 3000,4\n L 4000,4\n L 5000,4\n";
  const std::optional<Trace> t =
      IngestLackey(kText, "spread", options, nullptr);
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->events.size(), 6u);  // map + 5 loads
  EXPECT_EQ(t->events[1].at, 0u);
  EXPECT_EQ(t->events[2].at, 0u);
  EXPECT_EQ(t->events[3].at, options.quantum_us);
  EXPECT_EQ(t->events[4].at, options.quantum_us);
  EXPECT_EQ(t->events[5].at, 2 * options.quantum_us);
}

TEST(IngestTest, CsvHappyPathWithExplicitLayout) {
  const char kText[] =
      "time_us,op,addr,size\n"
      "0,map,0x10000000,2097152\n"
      "0,r,0x10000000,4096\n"
      "5000,w,0x10001000,64\n"
      "20000,unmap,0x10000000,0\n";
  IngestError error;
  const std::optional<Trace> t =
      IngestText(kText, "csv-sample", IngestOptions{}, &error);
  ASSERT_TRUE(t.has_value()) << error.message;
  // Explicit map rows suppress layout synthesis: exactly the four rows.
  ASSERT_EQ(t->events.size(), 4u);
  EXPECT_EQ(t->events[0].op, TraceOp::kMap);
  EXPECT_EQ(t->events[0].pages, (2 * MiB) >> kPageShift);
  EXPECT_EQ(t->events[1].op, TraceOp::kTouchPage);
  EXPECT_EQ(t->events[2].at, 5000u);
  EXPECT_TRUE(t->events[2].write);
  EXPECT_EQ(t->events[3].op, TraceOp::kUnmap);
  EXPECT_EQ(t->meta.data_bytes, 2 * MiB);
}

TEST(IngestTest, CsvWithoutMapsSynthesizesLayout) {
  const char kText[] =
      "0,r,0x10000000,4096\n"
      "5000,w,0x80000000,4096\n";  // > 32 MiB apart: two VMAs
  const std::optional<Trace> t =
      IngestCsv(kText, "twoseg", IngestOptions{}, nullptr);
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->events.size(), 4u);
  EXPECT_EQ(t->events[0].op, TraceOp::kMap);
  EXPECT_EQ(t->events[1].op, TraceOp::kMap);
  EXPECT_GT(t->meta.data_bytes, 0u);
}

TEST(IngestTest, UnknownDialectRejected) {
  IngestError error;
  EXPECT_FALSE(IngestText("what is this\n", "x", IngestOptions{}, &error)
                   .has_value());
  EXPECT_NE(error.message.find("unrecognized trace format"),
            std::string::npos);
}

}  // namespace
}  // namespace daos::trace
