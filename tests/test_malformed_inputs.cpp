// Malformed-input hardening: the text interfaces (scheme parser, debugfs
// writes) must reject garbage with line-accurate errors and leave all
// installed state untouched — never crash, never half-apply.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/engine.hpp"
#include "checkpoint_golden.hpp"
#include "damos/parser.hpp"
#include "dbgfs/damon_dbgfs.hpp"
#include "dbgfs/views.hpp"
#include "fault/fault.hpp"
#include "fleet/controller.hpp"
#include "lifecycle/checkpoint.hpp"
#include "lifecycle/supervisor.hpp"
#include "sim/system.hpp"
#include "sim/tier.hpp"
#include "trace/format.hpp"
#include "trace/ingest.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

// Every allocation of this binary goes through a replaced global operator
// new. While `g_watch_allocs` is set it records the largest request, and
// refuses any above 64 MiB, so a parser that sizes a buffer from an
// untrusted count fails its test without taking the memory.
namespace {
std::atomic<bool> g_watch_allocs{false};
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_watch_allocs.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
    while (seen < size && !g_largest_alloc.compare_exchange_weak(seen, size)) {
    }
    if (size > (std::size_t{64} << 20)) throw std::bad_alloc();
  }
  if (void* p = std::malloc(std::max<std::size_t>(size, 1))) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free with new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace daos {
namespace {

using damos::ParseResult;
using damos::ParseSchemes;

// --- parser ---------------------------------------------------------------

TEST(MalformedParserTest, OverlongLineRejected) {
  const std::string line(600, 'x');
  const ParseResult r = ParseSchemes(line + "\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors[0].line_number, 1);
  EXPECT_NE(r.errors[0].message.find("line too long"), std::string::npos);
}

TEST(MalformedParserTest, OverlongLineNumberAccurate) {
  const std::string text =
      "min max min min 2s max pageout\n" + std::string(4096, 'y') + "\n";
  const ParseResult r = ParseSchemes(text);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors[0].line_number, 2);
  // The valid line 1 still parsed (ParseSchemes reports per line).
  EXPECT_EQ(r.schemes.size(), 1u);
}

TEST(MalformedParserTest, MinAgeAboveMaxAgeRejected) {
  const ParseResult r = ParseSchemes("min max min min 10s 2s pageout\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("min_age exceeds max_age"),
            std::string::npos);
}

TEST(MalformedParserTest, MinAgeMaxKeywordNotAnOrderingError) {
  // "max max" uses the unbounded sentinel on both sides — legal.
  EXPECT_TRUE(ParseSchemes("min max min min max max stat\n").ok());
}

TEST(MalformedParserTest, MinFreqAboveMaxFreqSameUnitRejected) {
  const ParseResult pct = ParseSchemes("min max 80% 20% min max stat\n");
  ASSERT_FALSE(pct.ok());
  EXPECT_NE(pct.errors[0].message.find("min_freq exceeds max_freq"),
            std::string::npos);
  const ParseResult samples = ParseSchemes("min max 9 3 min max stat\n");
  ASSERT_FALSE(samples.ok());
}

TEST(MalformedParserTest, MixedFreqUnitsNotComparable) {
  // 90% vs 5 samples depends on the monitoring attrs; the parser must not
  // guess an ordering.
  EXPECT_TRUE(ParseSchemes("min max 90% 5 min max stat\n").ok());
}

TEST(MalformedParserTest, GarbageActionRejected) {
  const ParseResult r = ParseSchemes("min max min min 2s max explode\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("unknown action 'explode'"),
            std::string::npos);
}

TEST(MalformedParserTest, MigrateActionTyposRejected) {
  // The real migrate actions parse; near-misses must not silently map to
  // one of them.
  EXPECT_TRUE(ParseSchemes("min max 1 max min max migrate_hot\n").ok());
  EXPECT_TRUE(ParseSchemes("min max min min 1s max migrate_cold\n").ok());
  const ParseResult r =
      ParseSchemes("min max 1 max min max migrate_warm\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors[0].line_number, 1);
  EXPECT_NE(r.errors[0].message.find("unknown action 'migrate_warm'"),
            std::string::npos);
}

TEST(MalformedParserTest, EmbeddedNulByteRejectedNotFatal) {
  std::string line = "min max min min 2s max page";
  line.push_back('\0');
  line += "out\n";
  const ParseResult r = ParseSchemes(line);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors[0].line_number, 1);
}

TEST(MalformedParserTest, Utf8GarbageRejectedNotFatal) {
  const ParseResult r = ParseSchemes("gr\xc3\xb6\xc3\x9f\x65 max min min 2s max pageout\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("bad min_size"), std::string::npos);
}

TEST(MalformedParserTest, ErrorsCarryExactLineNumbers) {
  const ParseResult r = ParseSchemes(
      "# comment\n"
      "min max min min 2s max pageout\n"
      "\n"
      "min max min min 2s max explode\n"
      "4K 2K min min min max stat\n");
  ASSERT_EQ(r.errors.size(), 2u);
  EXPECT_EQ(r.errors[0].line_number, 4);
  EXPECT_EQ(r.errors[1].line_number, 5);
  EXPECT_NE(r.errors[1].message.find("min_size exceeds max_size"),
            std::string::npos);
  EXPECT_EQ(r.schemes.size(), 1u);
}

// --- governor clauses -----------------------------------------------------

TEST(MalformedGovernorTest, NegativeQuotaSizeRejected) {
  const ParseResult r =
      ParseSchemes("min max min min 2s max pageout quota_sz=-5M\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors[0].line_number, 1);
  EXPECT_NE(r.errors[0].message.find("bad quota_sz"), std::string::npos);
}

TEST(MalformedGovernorTest, NegativeQuotaMsRejected) {
  const ParseResult r =
      ParseSchemes("min max min min 2s max pageout quota_ms=-1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("bad quota_ms"), std::string::npos);
}

TEST(MalformedGovernorTest, ZeroQuotaRejected) {
  // quota_sz=0 would silently disarm the budget the user asked for.
  EXPECT_FALSE(
      ParseSchemes("min max min min 2s max pageout quota_sz=0\n").ok());
  EXPECT_FALSE(
      ParseSchemes("min max min min 2s max pageout quota_reset_ms=0\n").ok());
}

TEST(MalformedGovernorTest, AllZeroPrioWeightsRejected) {
  const ParseResult r =
      ParseSchemes("min max min min 2s max pageout prio_weights=0,0,0\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("prio_weights must not be all zero"),
            std::string::npos);
}

TEST(MalformedGovernorTest, OversizedPrioWeightRejected) {
  const ParseResult r =
      ParseSchemes("min max min min 2s max pageout prio_weights=1,5000,1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("bad prio_weights component"),
            std::string::npos);
}

TEST(MalformedGovernorTest, WatermarkOrderingRejected) {
  // low > high: the gate would deactivate everywhere.
  const ParseResult r = ParseSchemes(
      "min max min min 2s max pageout wmarks=free_mem_rate,100,500,900\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("high >= mid >= low"),
            std::string::npos);
}

TEST(MalformedGovernorTest, UnknownWatermarkMetricRejected) {
  const ParseResult r = ParseSchemes(
      "min max min min 2s max pageout wmarks=cpu_temp,900,500,100\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("unknown watermark metric"),
            std::string::npos);
}

TEST(MalformedGovernorTest, UnknownClauseRejected) {
  const ParseResult r =
      ParseSchemes("min max min min 2s max pageout turbo=1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("unknown governor clause 'turbo'"),
            std::string::npos);
}

TEST(MalformedGovernorTest, GovernorErrorsCarryExactLineNumbers) {
  const ParseResult r = ParseSchemes(
      "min max min min 2s max pageout quota_sz=16M\n"
      "min max min min 2s max pageout quota_sz=oops\n"
      "min max min min 2s max pageout wmarks=free_mem_rate,1,2,3\n");
  ASSERT_EQ(r.errors.size(), 2u);
  EXPECT_EQ(r.errors[0].line_number, 2);
  EXPECT_EQ(r.errors[1].line_number, 3);
  EXPECT_EQ(r.schemes.size(), 1u);
}

// --- tier geometry --------------------------------------------------------

sim::TierGeometry ParseGeoExpectError(const std::string& text,
                                      std::string* error) {
  sim::TierGeometry geo;
  EXPECT_FALSE(sim::ParseTierGeometry(text, &geo, error));
  return geo;
}

TEST(MalformedTierTest, UnknownTierKindRejected) {
  std::string error;
  ParseGeoExpectError("dram 64M\nhbm 16G lat=0.2\n", &error);
  EXPECT_NE(error.find("tier line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown tier kind 'hbm'"), std::string::npos);
  EXPECT_NE(error.find("want dram|cxl|zram|file"), std::string::npos);
}

TEST(MalformedTierTest, BadCapacityRejected) {
  std::string error;
  ParseGeoExpectError("dram lots\n", &error);
  EXPECT_NE(error.find("tier line 1: bad capacity 'lots'"),
            std::string::npos)
      << error;
  // Zero capacity is as useless as unparsable.
  ParseGeoExpectError("dram 0\n", &error);
  EXPECT_NE(error.find("bad capacity '0'"), std::string::npos) << error;
}

TEST(MalformedTierTest, NegativeBandwidthRejected) {
  std::string error;
  ParseGeoExpectError("dram 64M\ncxl 1G bw=-1G\n", &error);
  EXPECT_NE(error.find("tier line 2: negative bandwidth '-1G'"),
            std::string::npos)
      << error;
}

TEST(MalformedTierTest, BadLatencyRejected) {
  std::string error;
  ParseGeoExpectError("dram 64M\ncxl 1G lat=fast\n", &error);
  EXPECT_NE(error.find("tier line 2: bad latency 'fast'"), std::string::npos)
      << error;
  ParseGeoExpectError("dram 64M\ncxl 1G lat=-0.5\n", &error);
  EXPECT_NE(error.find("bad latency '-0.5'"), std::string::npos) << error;
}

TEST(MalformedTierTest, FirstTierMustBeDram) {
  std::string error;
  ParseGeoExpectError("cxl 1G lat=0.6\ndram 64M\n", &error);
  EXPECT_NE(error.find("tier line 1: first tier must be dram"),
            std::string::npos)
      << error;
}

TEST(MalformedTierTest, UnknownClauseRejected) {
  std::string error;
  ParseGeoExpectError("dram 64M numa=1\n", &error);
  EXPECT_NE(error.find("tier line 1: unknown clause 'numa=1'"),
            std::string::npos)
      << error;
}

TEST(MalformedTierTest, TooManyTiersRejected) {
  std::string text = "dram 64M\n";
  for (int i = 0; i < 8; ++i) text += "cxl 64M lat=0.5\n";
  std::string error;
  ParseGeoExpectError(text, &error);
  EXPECT_NE(error.find("tier line 9: too many tiers (max 8)"),
            std::string::npos)
      << error;
}

TEST(MalformedTierTest, EmptyGeometryRejected) {
  std::string error;
  ParseGeoExpectError("", &error);
  EXPECT_NE(error.find("tier geometry is empty"), std::string::npos);
  ParseGeoExpectError("# comments only\n\n", &error);
  EXPECT_NE(error.find("tier geometry is empty"), std::string::npos);
}

TEST(MalformedTierTest, RejectedGeometryWriteKeepsPrevious) {
  // The /tier/geometry control file shares the all-or-nothing discipline:
  // a rejected write leaves the installed geometry untouched.
  sim::System system(sim::MachineSpec::I3Metal().GuestOf(),
                     sim::SwapConfig::Zram(), sim::ThpMode::kNever,
                     5 * kUsPerMs);
  dbgfs::PseudoFs fs;
  const dbgfs::Mount tier_fs = dbgfs::MountTier(&fs, &system.machine());

  ASSERT_TRUE(fs.Write("/tier/geometry", "dram 64M\ncxl 1G lat=0.6\n"));
  const std::string before = fs.Read("/tier/geometry").value();
  ASSERT_TRUE(system.machine().tiered());

  std::string error;
  EXPECT_FALSE(fs.Write("/tier/geometry", "dram 64M\nfloppy 1M\n", &error));
  EXPECT_NE(error.find("tier line 2: unknown tier kind 'floppy'"),
            std::string::npos)
      << error;
  EXPECT_EQ(fs.Read("/tier/geometry").value(), before);
  EXPECT_TRUE(system.machine().tiered());
}

// --- debugfs --------------------------------------------------------------

workload::WorkloadProfile TinyProfile() {
  workload::WorkloadProfile p;
  p.name = "test/malformed";
  p.suite = "test";
  p.data_bytes = 16 * MiB;
  p.runtime_s = 5;
  p.noise = 0;
  p.groups = {workload::GroupSpec{1.0, 0.0, 1.0, 0.3}};
  return p;
}

class MalformedDbgfsTest : public ::testing::Test {
 protected:
  MalformedDbgfsTest()
      : system_(sim::MachineSpec::I3Metal().GuestOf(), sim::SwapConfig::Zram(),
                sim::ThpMode::kNever, 5 * kUsPerMs),
        proc_(system_.AddProcess(workload::ToProcessParams(TinyProfile()),
                                 workload::MakeSource(TinyProfile(), 3))),
        dbgfs_(&system_, &fs_) {}

  sim::System system_;
  sim::Process& proc_;
  dbgfs::PseudoFs fs_;
  dbgfs::DamonDbgfs dbgfs_;
};

TEST_F(MalformedDbgfsTest, RejectedSchemesWriteKeepsPreviousSchemes) {
  ASSERT_TRUE(fs_.Write("/damon/schemes", "min max min min 2s max pageout\n"));
  ASSERT_EQ(dbgfs_.engine().schemes().size(), 1u);
  const std::string before = dbgfs_.engine().schemes()[0].ToText();

  std::string error;
  EXPECT_FALSE(fs_.Write("/damon/schemes",
                         "min max min min 1s max pageout\n"
                         "totally not a scheme\n",
                         &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  // All-or-nothing: neither the bad line nor the valid line 1 replaced the
  // installed scheme.
  ASSERT_EQ(dbgfs_.engine().schemes().size(), 1u);
  EXPECT_EQ(dbgfs_.engine().schemes()[0].ToText(), before);
}

TEST_F(MalformedDbgfsTest, RejectedGovernorClauseKeepsPreviousSchemes) {
  ASSERT_TRUE(fs_.Write("/damon/schemes",
                        "min max min min 2s max pageout quota_sz=8M\n"));
  const std::string before = dbgfs_.engine().schemes()[0].ToText();

  std::string error;
  EXPECT_FALSE(fs_.Write("/damon/schemes",
                         "min max min min 2s max pageout quota_sz=-1\n",
                         &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_NE(error.find("bad quota_sz"), std::string::npos);
  ASSERT_EQ(dbgfs_.engine().schemes().size(), 1u);
  EXPECT_EQ(dbgfs_.engine().schemes()[0].ToText(), before);
}

TEST_F(MalformedDbgfsTest, OverlongSchemesLineRejected) {
  std::string error;
  EXPECT_FALSE(
      fs_.Write("/damon/schemes", std::string(100 * 1024, 'z'), &error));
  EXPECT_NE(error.find("line too long"), std::string::npos);
  EXPECT_TRUE(dbgfs_.engine().schemes().empty());
}

TEST_F(MalformedDbgfsTest, SchemesWriteWithNulByteRejected) {
  std::string content = "min max min min 2s max stat";
  content.push_back('\0');
  content += "x\n";
  std::string error;
  EXPECT_FALSE(fs_.Write("/damon/schemes", content, &error));
  EXPECT_TRUE(dbgfs_.engine().schemes().empty());
}

TEST_F(MalformedDbgfsTest, BadAttrsRejectedAndUnchanged) {
  const std::string before = fs_.Read("/damon/attrs").value();
  std::string error;
  // min_nr > max_nr is inconsistent; the error names the violated bound.
  EXPECT_FALSE(fs_.Write("/damon/attrs", "5000 100000 1000000 500 10", &error));
  EXPECT_NE(error.find("attrs: need 0 < min_nr_regions <= max_nr_regions"),
            std::string::npos)
      << error;
  EXPECT_FALSE(fs_.Write("/damon/attrs", "garbage in here now五 ok", &error));
  EXPECT_EQ(fs_.Read("/damon/attrs").value(), before);
}

TEST_F(MalformedDbgfsTest, BadTargetsRejectedAndUnchanged) {
  ASSERT_TRUE(
      fs_.Write("/damon/target_ids", std::to_string(proc_.pid())));
  const std::string before = fs_.Read("/damon/target_ids").value();
  std::string error;
  EXPECT_FALSE(fs_.Write("/damon/target_ids", "-3", &error));
  EXPECT_FALSE(fs_.Write("/damon/target_ids", "999999", &error));
  EXPECT_NE(error.find("no such pid"), std::string::npos);
  EXPECT_EQ(fs_.Read("/damon/target_ids").value(), before);
  // Not a pid at all: a sign, zero, past INT_MAX, or past 32 bits (which
  // must not wrap 4294967297 around to pid 1).
  for (const char* bad : {"+1", "0", "2147483648", "4294967295",
                          "4294967297", "18446744073709551617", "1x"}) {
    error.clear();
    EXPECT_FALSE(fs_.Write("/damon/target_ids", bad, &error)) << bad;
    EXPECT_NE(error.find(std::string("bad target '") + bad + "'"),
              std::string::npos)
        << error;
    EXPECT_EQ(fs_.Read("/damon/target_ids").value(), before) << bad;
  }
}

TEST_F(MalformedDbgfsTest, MonitorOnGarbageRejected) {
  std::string error;
  EXPECT_FALSE(fs_.Write("/damon/monitor_on", "maybe", &error));
  EXPECT_NE(error.find("expected 'on' or 'off'"), std::string::npos);
  EXPECT_FALSE(dbgfs_.monitoring());
}

// --- checkpoint text (src/lifecycle) --------------------------------------

/// A minimal valid checkpoint to mutate: one target, one region.
lifecycle::Checkpoint TinyCheckpoint() {
  lifecycle::Checkpoint cp;
  cp.at = 1000;
  cp.sched.primed = true;
  cp.sched.rng_state = {1, 2, 3, 4};
  cp.sched.target_layout_gens = {1};
  lifecycle::CheckpointTarget target;
  damon::Region region;
  region.start = 1 * GiB;
  region.end = 1 * GiB + 2 * MiB;
  region.sampling_addr = 1 * GiB;
  target.regions.push_back(region);
  cp.targets.push_back(target);
  return cp;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

TEST(MalformedCheckpointTest, EmptyInputRejectedAtLineOne) {
  lifecycle::CheckpointError error;
  EXPECT_FALSE(lifecycle::ParseCheckpoint("", &error).has_value());
  EXPECT_EQ(error.line_number, 1);
  EXPECT_NE(error.message.find("empty checkpoint"), std::string::npos);
}

TEST(MalformedCheckpointTest, WrongMagicRejectedAtLineOne) {
  lifecycle::CheckpointError error;
  EXPECT_FALSE(lifecycle::ParseCheckpoint("nope v1\n", &error).has_value());
  EXPECT_EQ(error.line_number, 1);
  EXPECT_NE(error.message.find("not a checkpoint"), std::string::npos);
}

TEST(MalformedCheckpointTest, VersionSkewRejectedAtLineOne) {
  std::vector<std::string> lines =
      SplitLines(SerializeCheckpoint(TinyCheckpoint()));
  lines[0] = "daos-checkpoint v2";
  lifecycle::CheckpointError error;
  EXPECT_FALSE(
      lifecycle::ParseCheckpoint(JoinLines(lines), &error).has_value());
  EXPECT_EQ(error.line_number, 1);
  EXPECT_NE(error.message.find("unsupported checkpoint version v2"),
            std::string::npos)
      << error.message;
}

TEST(MalformedCheckpointTest, EveryTruncationRejectedWithAccurateLine) {
  const std::vector<std::string> lines =
      SplitLines(SerializeCheckpoint(TinyCheckpoint()));
  ASSERT_GT(lines.size(), 5u);
  // No prefix of a valid checkpoint is a valid checkpoint, and the error
  // always points at (or before) the first missing line.
  for (std::size_t keep = 0; keep < lines.size(); ++keep) {
    const std::vector<std::string> prefix(lines.begin(),
                                          lines.begin() + keep);
    lifecycle::CheckpointError error;
    EXPECT_FALSE(
        lifecycle::ParseCheckpoint(JoinLines(prefix), &error).has_value())
        << "prefix of " << keep << " lines parsed";
    EXPECT_GE(error.line_number, 1) << "keep=" << keep;
    EXPECT_LE(error.line_number, static_cast<int>(keep) + 1)
        << "keep=" << keep;
    EXPECT_FALSE(error.message.empty());
  }
}

TEST(MalformedCheckpointTest, MissingEndRecordNamedExactly) {
  std::vector<std::string> lines =
      SplitLines(SerializeCheckpoint(TinyCheckpoint()));
  ASSERT_EQ(lines.back(), "end");
  lines.pop_back();
  lifecycle::CheckpointError error;
  EXPECT_FALSE(
      lifecycle::ParseCheckpoint(JoinLines(lines), &error).has_value());
  EXPECT_EQ(error.line_number, static_cast<int>(lines.size()) + 1);
  EXPECT_NE(error.message.find("unexpected end of checkpoint"),
            std::string::npos)
      << error.message;
}

TEST(MalformedCheckpointTest, GarbageFieldRejectedAtItsLine) {
  std::vector<std::string> lines =
      SplitLines(SerializeCheckpoint(TinyCheckpoint()));
  int region_line = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("region ", 0) == 0) {
      lines[i] = lines[i].substr(0, lines[i].rfind(' ')) + " xyz";
      region_line = static_cast<int>(i) + 1;
      break;
    }
  }
  ASSERT_GT(region_line, 0);
  lifecycle::CheckpointError error;
  EXPECT_FALSE(
      lifecycle::ParseCheckpoint(JoinLines(lines), &error).has_value());
  EXPECT_EQ(error.line_number, region_line);
  EXPECT_NE(error.message.find("bad unsigned value 'xyz'"),
            std::string::npos)
      << error.message;
}

TEST(MalformedCheckpointTest, TrailingDataAfterEndRejected) {
  const std::string text =
      SerializeCheckpoint(TinyCheckpoint()) + "bonus record\n";
  lifecycle::CheckpointError error;
  EXPECT_FALSE(lifecycle::ParseCheckpoint(text, &error).has_value());
  EXPECT_EQ(error.line_number,
            static_cast<int>(SplitLines(text).size()));
  EXPECT_NE(error.message.find("trailing data"), std::string::npos);
}

TEST(MalformedCheckpointTest, AllZeroRngRejected) {
  lifecycle::Checkpoint cp = TinyCheckpoint();
  cp.sched.rng_state = {0, 0, 0, 0};
  lifecycle::CheckpointError error;
  EXPECT_FALSE(
      lifecycle::ParseCheckpoint(SerializeCheckpoint(cp), &error).has_value());
  EXPECT_NE(error.message.find("all-zero"), std::string::npos);
  // "rng" is the fifth record of the format.
  EXPECT_EQ(error.line_number, 5);
}

TEST(MalformedCheckpointTest, OverflowingNumberRejected) {
  std::vector<std::string> lines =
      SplitLines(SerializeCheckpoint(TinyCheckpoint()));
  lines[1] = "at 99999999999999999999999999";
  lifecycle::CheckpointError error;
  EXPECT_FALSE(
      lifecycle::ParseCheckpoint(JoinLines(lines), &error).has_value());
  EXPECT_EQ(error.line_number, 2);
  EXPECT_NE(error.message.find("bad unsigned value"), std::string::npos);
}

/// One seeded mutant of `golden`: a raw byte edit, or one to three token
/// or line edits (a boundary value or grammar word from `words`, a token
/// from another line, a deleted or doubled token or line).
std::string Mutate(const std::string& golden,
                   const std::vector<const char*>& words, Rng& rng) {
  if (rng.NextBounded(4) == 0) {
    std::string text = golden;
    const std::size_t at = rng.NextBounded(text.size());
    const char byte = static_cast<char>(rng.NextBounded(256));
    switch (rng.NextBounded(3)) {
      case 0:
        text[at] = byte;
        break;
      case 1:
        text.insert(at, 1, byte);
        break;
      default:
        text.erase(at, 1);
        break;
    }
    return text;
  }
  std::vector<std::string> lines = SplitLines(golden);
  const std::uint64_t edits =
      rng.NextBounded(2) == 0 ? 1 : 2 + rng.NextBounded(2);
  for (std::uint64_t e = 0; e < edits && !lines.empty(); ++e) {
    const std::size_t li = rng.NextBounded(lines.size());
    std::vector<std::string> tokens;
    for (std::string_view t : SplitChar(lines[li], ' '))
      tokens.emplace_back(t);
    const std::size_t ti = rng.NextBounded(tokens.size());
    switch (rng.NextBounded(6)) {
      case 0:
        tokens[ti] = words[rng.NextBounded(words.size())];
        break;
      case 1: {
        const std::vector<std::string_view> other =
            SplitChar(lines[rng.NextBounded(lines.size())], ' ');
        tokens[ti] = std::string(other[rng.NextBounded(other.size())]);
        break;
      }
      case 2:
        tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(ti));
        break;
      case 3:
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(ti),
                      tokens[ti]);
        break;
      case 4:
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(li));
        continue;
      default:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(li),
                     lines[li]);
        continue;
    }
    std::string line;
    for (const std::string& t : tokens) line += (line.empty() ? "" : " ") + t;
    lines[li] = line;
  }
  std::string text = JoinLines(lines);
  // A golden without a final newline (a trace's binary body) keeps its
  // last byte as it was.
  if (!golden.ends_with('\n') && !text.empty()) text.pop_back();
  return text;
}

/// True when `error` reads "line N: <message>" with N >= 1.
bool NamesLine(std::string_view error) {
  if (!error.starts_with("line ")) return false;
  error.remove_prefix(5);
  const std::size_t colon = error.find(": ");
  return colon != std::string_view::npos && colon + 2 < error.size() &&
         ParseU32(error.substr(0, colon)).value_or(0) >= 1;
}

/// One text grammar under the mutation fuzzer: a golden text, the words
/// Mutate draws from, the seed that fixes the mutants, and the grammar's
/// parse/format pair.
template <typename T>
struct FuzzGrammar {
  std::string golden;
  std::vector<const char*> words;
  std::uint64_t seed;
  /// Parses a text; a rejection returns nullopt and sets the error.
  std::function<std::optional<T>(const std::string&, std::string*)> parse;
  std::function<std::string(const T&)> format;
  /// Reads back what `format` wrote, where that is another grammar than
  /// `parse` reads; null when `parse` reads it.
  std::function<std::optional<T>(const std::string&, std::string*)> reparse =
      nullptr;
  /// Field-by-field equality; null when the texts alone decide.
  std::function<bool(const T&, const T&)> same = nullptr;
  std::function<bool(std::string_view)> names_line = NamesLine;
};

/// Feeds 20000 seeded mutants of `g.golden`, which must parse, to
/// `g.parse`. None may throw. A rejected one names a line; an accepted one
/// formats to a text that reads back (through `g.reparse` where set; to an
/// equal value, where `g.same` is set) and formats to itself. More than
/// 1000 must be accepted, so the fixpoint check sees enough.
template <typename T>
void FuzzFixpoint(const FuzzGrammar<T>& g) {
  std::string golden_error;
  ASSERT_TRUE(g.parse(g.golden, &golden_error).has_value()) << golden_error;
  Rng rng(g.seed);
  int accepted = 0;
  for (int m = 0; m < 20000; ++m) {
    const std::string text = Mutate(g.golden, g.words, rng);
    std::string error;
    std::optional<T> parsed;
    ASSERT_NO_THROW(parsed = g.parse(text, &error))
        << "mutant " << m << ":\n" << text;
    if (!parsed.has_value()) {
      ASSERT_TRUE(g.names_line(error))
          << "mutant " << m << ": " << error << "\n" << text;
      continue;
    }
    ++accepted;
    const std::string once = g.format(*parsed);
    const auto& read_back = g.reparse ? g.reparse : g.parse;
    const std::optional<T> again = read_back(once, &error);
    ASSERT_TRUE(again.has_value())
        << "mutant " << m << " formats to a rejected text (" << error
        << "):\n" << text << "---\n" << once;
    if (g.same) {
      ASSERT_TRUE(g.same(*parsed, *again))
          << "mutant " << m << " formats lossily:\n" << text << "---\n"
          << once;
    }
    ASSERT_EQ(g.format(*again), once) << "mutant " << m;
  }
  EXPECT_GT(accepted, 1000);
}

TEST(MalformedCheckpointTest, MutantsNeverCrashAndReachAFixpoint) {
  // A checkpoint restored from dbgfs and captured again must stay
  // restorable. About 8 % of the mutants are accepted.
  FuzzFixpoint<lifecycle::Checkpoint>({
      .golden = kFullCheckpointText,
      .words = {"0", "1", "2", "-1", "2147483647", "2147483648", "4294967295",
                "4294967296", "18446744073709551615", "18446744073709551616",
                "4096", "4097", "1048576", "1048577", "0x1p+1", "-0x1p-1",
                "1e308", "1e309", "nan", "inf", "percent", "samples",
                "pageout", "free_mem_rate", "none", "end", "target", "region",
                "x", ""},
      .seed = 0xc4ec'4b01'47f0'0d5eULL,
      .parse =
          [](const std::string& text, std::string* error) {
            lifecycle::CheckpointError e;
            std::optional<lifecycle::Checkpoint> cp =
                lifecycle::ParseCheckpoint(text, &e);
            if (!cp.has_value()) *error = LineError(e.line_number, e.message);
            return cp;
          },
      .format = lifecycle::SerializeCheckpoint,
  });
}

// --- tier geometry mutants (src/sim) --------------------------------------

TEST(MalformedTierTest, MutantsNeverCrashAndReachAFixpoint) {
  // What /tier/geometry reads back must be writable again. The empty
  // geometry is the one rejection without a line.
  FuzzFixpoint<sim::TierGeometry>({
      .golden = "# fastest first\n"
                "dram 64M\n"
                "cxl 1G lat=0.6 bw=8G\n"
                "file 4G lat=2.0 bw=1G\n",
      .words = {"dram", "cxl", "zram", "file", "0", "1", "1025", "1500K",
                "3000M", "64.0M", "1.5M", "2.9G", "0.3K", "16T",
                "18446744073709551615", "18446744073709551616", "-1",
                "lat=0.1234567", "lat=-0", "lat=1e-320", "lat=1e308",
                "lat=1e309", "lat=nan", "lat=inf", "lat=0x1p-3",
                "bw=1000000", "bw=976.6K", "bw=-1G", "bw=0", "bw=0.5", "bw=",
                "lat=", "#", "numa=1", "\v", "x", ""},
      .seed = 0x71e2'9e0f'a77e'5eedULL,
      .parse =
          [](const std::string& text, std::string* error) {
            sim::TierGeometry geo;
            return sim::ParseTierGeometry(text, &geo, error)
                       ? std::optional<sim::TierGeometry>(geo)
                       : std::nullopt;
          },
      .format = [](const sim::TierGeometry& geo) { return geo.ToText(); },
      .same =
          [](const sim::TierGeometry& a, const sim::TierGeometry& b) {
            if (a.size() != b.size()) return false;
            for (std::size_t i = 0; i < a.size(); ++i) {
              const sim::TierSpec& x = a.tiers[i];
              const sim::TierSpec& y = b.tiers[i];
              if (x.kind != y.kind || x.capacity_bytes != y.capacity_bytes ||
                  x.access_extra_us != y.access_extra_us ||
                  x.migrate_bw_bytes_per_s != y.migrate_bw_bytes_per_s) {
                return false;
              }
            }
            return true;
          },
      .names_line =
          [](std::string_view error) {
            return error == "tier geometry is empty" ||
                   (error.starts_with("tier ") &&
                    NamesLine(error.substr(5)));
          },
  });
}

// --- commit bundles (src/lifecycle) ---------------------------------------

TEST(MalformedCommitBundleTest, UnknownDirectiveLineAccurate) {
  lifecycle::KdamondSupervisor supervisor;
  lifecycle::CommitBundle bundle;
  std::string error;
  EXPECT_FALSE(supervisor.ParseCommitBundle(
      "attrs 5000 100000 1000000 10 1000\nfrobnicate x\n", &bundle, &error));
  EXPECT_NE(error.find("line 2: unknown directive 'frobnicate'"),
            std::string::npos)
      << error;
}

TEST(MalformedCommitBundleTest, BadSchemeLineReported) {
  lifecycle::KdamondSupervisor supervisor;
  lifecycle::CommitBundle bundle;
  std::string error;
  EXPECT_FALSE(supervisor.ParseCommitBundle(
      "scheme min max min min min max explode\n", &bundle, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(MalformedCommitBundleTest, EmptyBundleRejected) {
  lifecycle::KdamondSupervisor supervisor;
  lifecycle::CommitBundle bundle;
  std::string error;
  EXPECT_FALSE(
      supervisor.ParseCommitBundle("# nothing here\n", &bundle, &error));
  EXPECT_NE(error.find("empty commit bundle"), std::string::npos) << error;
}

TEST(MalformedCommitBundleTest, DuplicateAttrsRejected) {
  lifecycle::KdamondSupervisor supervisor;
  lifecycle::CommitBundle bundle;
  std::string error;
  EXPECT_FALSE(supervisor.ParseCommitBundle(
      "attrs 5000 100000 1000000 10 1000\n"
      "attrs 5000 100000 1000000 10 1000\n",
      &bundle, &error));
  EXPECT_NE(error.find("line 2: duplicate attrs"), std::string::npos)
      << error;
}

TEST(MalformedCommitBundleTest, AttrsFieldCountEnforced) {
  lifecycle::KdamondSupervisor supervisor;
  lifecycle::CommitBundle bundle;
  std::string error;
  EXPECT_FALSE(
      supervisor.ParseCommitBundle("attrs 5000 100000\n", &bundle, &error));
  EXPECT_NE(error.find("attrs expects"), std::string::npos) << error;
}

TEST(MalformedCommitBundleTest, RegionCountsBeyond32BitsRejected) {
  // Truncated to 32 bits these would read as min_nr=10, max_nr=20.
  lifecycle::KdamondSupervisor supervisor;
  lifecycle::CommitBundle bundle;
  std::string error;
  EXPECT_FALSE(supervisor.ParseCommitBundle(
      "attrs 5000 100000 1000000 4294967306 4294967316\n", &bundle, &error));
  EXPECT_NE(error.find("line 1: bad number '4294967306'"), std::string::npos)
      << error;
}

TEST(MalformedCommitBundleTest, MutantsNeverCrashAndReachAFixpoint) {
  // A bundle written back from what was parsed must parse to the same
  // bundle. The formatter is the wire form: an attrs line, then one
  // "scheme <Scheme::ToText()>" line per scheme.
  lifecycle::KdamondSupervisor supervisor;
  FuzzFixpoint<lifecycle::CommitBundle>({
      .golden = "# staged reconfiguration\n"
                "attrs 5000 100000 1000000 10 1000\n"
                "scheme 4K max min min 5s max pageout\n"
                "# a governed tiering scheme\n"
                "scheme min 2M 5 80% 100ms 1h migrate_hot quota_sz=16M "
                "quota_reset_ms=1000 prio_weights=3,2,1\n"
                "scheme min max min max min max stat\n",
      .words = {"attrs", "scheme", "0", "1", "10", "1000", "4294967295",
                "4294967296", "18446744073709551615", "18446744073709551616",
                "-1", "1e3", "0x10", "min", "max", "5s", "1.5M", "101%",
                "nan", "stat", "pageout", "quota_sz=0", "quota_ms=0",
                "wmarks=none", "#", "x", ""},
      .seed = 0xc0de'b0d1'e5ee'd5edULL,
      .parse =
          [&supervisor](const std::string& text, std::string* error)
              -> std::optional<lifecycle::CommitBundle> {
            lifecycle::CommitBundle bundle;
            if (!supervisor.ParseCommitBundle(text, &bundle, error))
              return std::nullopt;
            return bundle;
          },
      .format =
          [](const lifecycle::CommitBundle& bundle) {
            std::string out;
            if (bundle.attrs.has_value()) {
              const damon::MonitoringAttrs& a = *bundle.attrs;
              AppendF(out, "attrs %llu %llu %llu %u %u\n",
                      static_cast<unsigned long long>(a.sampling_interval),
                      static_cast<unsigned long long>(a.aggregation_interval),
                      static_cast<unsigned long long>(
                          a.regions_update_interval),
                      a.min_nr_regions, a.max_nr_regions);
            }
            for (const damos::Scheme& s :
                 bundle.schemes.value_or(std::vector<damos::Scheme>{}))
              out += "scheme " + s.ToText() + "\n";
            return out;
          },
      .same =
          [](const lifecycle::CommitBundle& a,
             const lifecycle::CommitBundle& b) {
            if (a.attrs.has_value() != b.attrs.has_value() ||
                a.schemes.has_value() != b.schemes.has_value())
              return false;
            if (a.attrs.has_value()) {
              const damon::MonitoringAttrs& x = *a.attrs;
              const damon::MonitoringAttrs& y = *b.attrs;
              if (x.sampling_interval != y.sampling_interval ||
                  x.aggregation_interval != y.aggregation_interval ||
                  x.regions_update_interval != y.regions_update_interval ||
                  x.min_nr_regions != y.min_nr_regions ||
                  x.max_nr_regions != y.max_nr_regions)
                return false;
            }
            if (!a.schemes.has_value()) return true;
            if (a.schemes->size() != b.schemes->size()) return false;
            for (std::size_t i = 0; i < a.schemes->size(); ++i)
              if ((*a.schemes)[i].bounds() != (*b.schemes)[i].bounds() ||
                  (*a.schemes)[i].policy() != (*b.schemes)[i].policy())
                return false;
            return true;
          },
  });
}

// --- daos-trace binary format (src/trace) ----------------------------------
//
// Hostile traces must be rejected all-or-nothing with errors that name the
// failing chunk and byte offset (header problems carry line numbers), and
// must never be able to request absurd allocations.

std::string U32Le(std::uint32_t v) {
  std::string out;
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
  return out;
}

std::string Framed(const std::string& payload, std::uint32_t records) {
  return U32Le(static_cast<std::uint32_t>(payload.size())) + U32Le(records) +
         U32Le(trace::Crc32(payload)) + payload;
}

trace::Trace TinyTrace() {
  trace::Trace t;
  t.events = {
      {0, trace::TraceOp::kMap, false, 0x10000, 64, "heap"},
      {5000, trace::TraceOp::kTouchPage, true, 0x10003, 1, ""},
  };
  return t;
}

TEST(MalformedTraceTest, BadMagicIsLineOne) {
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace("daos-trace v2\nbody\n", &error).has_value());
  EXPECT_EQ(error.line_number, 1);
  EXPECT_NE(error.message.find("bad magic"), std::string::npos);
}

TEST(MalformedTraceTest, BadHeaderValueIsLineAccurate) {
  std::string text = SerializeTrace(TinyTrace());
  const std::size_t at = text.find("page_shift 12");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 13, "page_shift 33");  // out of the sane [10, 20] range
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace(text, &error).has_value());
  EXPECT_EQ(error.line_number, 3);  // magic, name, page_shift
  EXPECT_NE(error.message.find("page_shift"), std::string::npos);
}

TEST(MalformedTraceTest, MissingRequiredHeaderKeyRejected) {
  std::string text = SerializeTrace(TinyTrace());
  const std::size_t at = text.find("events 2\n");
  ASSERT_NE(at, std::string::npos);
  text.erase(at, 9);
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace(text, &error).has_value());
  EXPECT_NE(error.message.find("header missing a required key"),
            std::string::npos);
}

TEST(MalformedTraceTest, TruncatedChunkFrameRejected) {
  const std::string text = SerializeTrace(TinyTrace());
  const std::size_t body = text.find("body\n");
  ASSERT_NE(body, std::string::npos);
  trace::TraceError error;
  EXPECT_FALSE(
      trace::ParseTrace(text.substr(0, body + 5 + 5), &error).has_value());
  EXPECT_NE(error.message.find("chunk 0: truncated chunk frame"),
            std::string::npos);
  EXPECT_EQ(error.offset, body + 5);
}

TEST(MalformedTraceTest, TruncatedChunkPayloadRejected) {
  std::string text = SerializeTrace(TinyTrace());
  text.pop_back();
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace(text, &error).has_value());
  EXPECT_NE(error.message.find("chunk 0: truncated chunk payload"),
            std::string::npos);
  EXPECT_GT(error.offset, 0u);
  EXPECT_EQ(error.line_number, 0);
}

TEST(MalformedTraceTest, CrcMismatchAttributedToChunk) {
  std::string text = SerializeTrace(TinyTrace());
  text.back() = static_cast<char>(text.back() ^ 0x40);  // flip a payload bit
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace(text, &error).has_value());
  EXPECT_NE(error.message.find("chunk 0: crc mismatch"), std::string::npos);
}

TEST(MalformedTraceTest, BadVarintOffsetAccurate) {
  const std::string header = SerializeHeader(trace::TraceMeta{}, 1, 1);
  // op byte then a varint whose continuation bit never drops.
  const std::string text =
      header + Framed(std::string("\x02") + std::string(10, '\xff'), 1);
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace(text, &error).has_value());
  EXPECT_NE(error.message.find("chunk 0: bad varint"), std::string::npos);
  EXPECT_EQ(error.offset, header.size() + 12);  // the record's first byte
}

TEST(MalformedTraceTest, BadOpByteRejected) {
  const std::string text =
      SerializeHeader(trace::TraceMeta{}, 1, 1) + Framed("\x09", 1);
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace(text, &error).has_value());
  EXPECT_NE(error.message.find("chunk 0: bad op byte"), std::string::npos);
}

TEST(MalformedTraceTest, NegativePageRejected) {
  // touch, dt=0, page delta zigzag(-5): the cursor would go below page 0.
  std::string payload("\x02", 1);
  trace::AppendVarint(payload, 0);
  trace::AppendVarint(payload, trace::ZigZag(-5));
  const std::string text =
      SerializeHeader(trace::TraceMeta{}, 1, 1) + Framed(payload, 1);
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace(text, &error).has_value());
  EXPECT_NE(error.message.find("page number out of range"), std::string::npos);
}

TEST(MalformedTraceTest, ZeroPageCountRejected) {
  // map, dt=0, page 0, pages=0: an empty mapping is garbage.
  std::string payload("\x00", 1);
  trace::AppendVarint(payload, 0);
  trace::AppendVarint(payload, trace::ZigZag(0));
  trace::AppendVarint(payload, 0);
  const std::string text =
      SerializeHeader(trace::TraceMeta{}, 1, 1) + Framed(payload, 1);
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace(text, &error).has_value());
  EXPECT_NE(error.message.find("page count out of range"), std::string::npos);
}

TEST(MalformedTraceTest, TimestampBackwardsAcrossChunks) {
  // Chunk-local deltas are non-negative by construction; the cross-chunk
  // monotonicity is the parser's to enforce. Chunk 0 ends at t=100, chunk
  // 1 opens at t=50.
  std::string first("\x02", 1);
  trace::AppendVarint(first, 100);
  trace::AppendVarint(first, trace::ZigZag(0));
  std::string second("\x02", 1);
  trace::AppendVarint(second, 50);
  trace::AppendVarint(second, trace::ZigZag(0));
  const std::string text = SerializeHeader(trace::TraceMeta{}, 2, 2) +
                           Framed(first, 1) + Framed(second, 1);
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace(text, &error).has_value());
  EXPECT_NE(error.message.find("chunk 1: timestamp went backwards"),
            std::string::npos);
}

TEST(MalformedTraceTest, TrailingBytesAfterFinalChunkRejected) {
  const std::string text = SerializeTrace(TinyTrace()) + "x";
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace(text, &error).has_value());
  EXPECT_NE(error.message.find("trailing bytes after final chunk"),
            std::string::npos);
}

TEST(MalformedTraceTest, EventCountMismatchWithHeaderRejected) {
  std::string payload("\x02", 1);
  trace::AppendVarint(payload, 0);
  trace::AppendVarint(payload, trace::ZigZag(0));
  const std::string text =
      SerializeHeader(trace::TraceMeta{}, 3, 1) + Framed(payload, 1);
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace(text, &error).has_value());
  EXPECT_NE(error.message.find("event count mismatch"), std::string::npos);
}

TEST(MalformedTraceTest, OversizedChunkPayloadRejected) {
  // A frame claiming a 128 MiB payload must be rejected before any
  // allocation or scan — the declared size itself is the offense.
  const std::string text = SerializeHeader(trace::TraceMeta{}, 1, 1) +
                           U32Le(1u << 27) + U32Le(1) + U32Le(0);
  trace::TraceError error;
  EXPECT_FALSE(trace::ParseTrace(text, &error).has_value());
  EXPECT_NE(error.message.find("payload size too large"), std::string::npos);
}

// --- trace text ingestion (src/trace/ingest) --------------------------------

TEST(MalformedIngestTest, LackeyBadHexLineAccurate) {
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestText("== banner ==\n L zzzz,4\n", "x",
                                 trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_EQ(error.line_number, 2);
  EXPECT_NE(error.message.find("bad hex address"), std::string::npos);
}

TEST(MalformedIngestTest, LackeyMissingSizeRejected) {
  trace::IngestError error;
  EXPECT_FALSE(
      trace::IngestLackey(" L 1000\n", "x", trace::IngestOptions{}, &error)
          .has_value());
  EXPECT_EQ(error.line_number, 1);
  EXPECT_NE(error.message.find("missing \",size\""), std::string::npos);
}

TEST(MalformedIngestTest, LackeyUnknownOpCharRejected) {
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestLackey(" L 1000,4\n X 2000,4\n", "x",
                                   trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_EQ(error.line_number, 2);
  EXPECT_NE(error.message.find("unknown op"), std::string::npos);
}

TEST(MalformedIngestTest, LackeyGiantAccessRejected) {
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestLackey(" L 1000,2000000000\n", "x",
                                   trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_NE(error.message.find("bad access size"), std::string::npos);
}

TEST(MalformedIngestTest, CsvTimeBackwardsLineAccurate) {
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestText("time_us,op,addr,size\n"
                                 "5000,r,0x1000,4\n"
                                 "0,r,0x1000,4\n",
                                 "x", trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_EQ(error.line_number, 3);
  EXPECT_NE(error.message.find("time_us went backwards"), std::string::npos);
}

TEST(MalformedIngestTest, CsvUnknownOpRejected) {
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestText("0,frobnicate,0x1000,4\n", "x",
                                 trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_EQ(error.line_number, 1);
  EXPECT_NE(error.message.find("unknown op \"frobnicate\""),
            std::string::npos);
}

TEST(MalformedIngestTest, CsvWrongFieldCountRejected) {
  trace::IngestError error;
  EXPECT_FALSE(
      trace::IngestCsv("0,r,0x1000\n", "x", trace::IngestOptions{}, &error)
          .has_value());
  EXPECT_NE(error.message.find("expected 4 fields"), std::string::npos);
}

TEST(MalformedIngestTest, CsvGiantMapRejected) {
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestText("0,map,0x1000,999999999999999\n", "x",
                                 trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_NE(error.message.find("bad map size"), std::string::npos);
}

TEST(MalformedIngestTest, CsvNegatedAddressRejected) {
  // Negated modulo 2^64 this would read as address 0x10000000.
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestText("0,r,-0xfffffffff0000000,4096\n", "x",
                                 trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_EQ(error.line_number, 1);
  EXPECT_NE(error.message.find("bad address"), std::string::npos);
}

TEST(MalformedIngestTest, CsvNegatedSizeRejected) {
  // Negated modulo 2^64 this would read as size 1.
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestText("0,r,0x1000,-18446744073709551615\n", "x",
                                 trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_EQ(error.line_number, 1);
  EXPECT_NE(error.message.find("bad size"), std::string::npos);
}

TEST(MalformedIngestTest, SignsAndInnerWhitespaceRejected) {
  const char* const rows[] = {"0,r,+0x1000,4\n", "0,r,0x10 00,4\n",
                              "0,r,0x1000,+4\n", "0,r,0x1000,4 0\n",
                              "0,r,0x,4\n"};
  for (const char* row : rows) {
    trace::IngestError error;
    EXPECT_FALSE(
        trace::IngestCsv(row, "x", trace::IngestOptions{}, &error).has_value())
        << row;
  }
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestLackey(" L -1000,4\n", "x",
                                   trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_NE(error.message.find("bad hex address"), std::string::npos);
}

TEST(MalformedIngestTest, EmptyInputRejected) {
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestLackey("== banner only ==\n", "x",
                                   trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_NE(error.message.find("no data accesses"), std::string::npos);
  EXPECT_FALSE(trace::IngestText("what is this\n", "x",
                                 trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_NE(error.message.find("unrecognized trace format"),
            std::string::npos);
}

TEST(MalformedIngestTest, NothingToIngestNamesTheEndOfInput) {
  // Both "nothing ingested" rejections once read "line 0", which names no
  // line; like every end-of-input error they name the line past the last.
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestText("I  0400d7d4,8\nI  0400d7d8,4\n", "x",
                                 trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_EQ(LineError(error.line_number, error.message),
            "line 3: no data accesses in input");
  EXPECT_FALSE(trace::IngestText("time_us,op,addr,size\n", "x",
                                 trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_EQ(LineError(error.line_number, error.message),
            "line 2: no events in input");
}

// --- fault plane env -------------------------------------------------------

// Saves and restores DAOS_FAULTS / DAOS_FAULT_SEED around a test, so CI
// legs that run this binary with an armed env plane keep it for the tests
// that follow.
class MalformedFaultEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Save("DAOS_FAULTS");
    Save("DAOS_FAULT_SEED");
  }
  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value.has_value()) {
        setenv(name.c_str(), value->c_str(), 1);
      } else {
        unsetenv(name.c_str());
      }
    }
  }

 private:
  void Save(const char* name) {
    const char* value = std::getenv(name);
    saved_.emplace_back(name, value == nullptr
                                  ? std::nullopt
                                  : std::optional<std::string>(value));
  }
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

// A wrong DAOS_FAULT_SEED is a *different* fault schedule, not a degraded
// one — silently defaulting would replay something other than the repro
// line named. FromEnv must reject the whole plane instead.
TEST_F(MalformedFaultEnvTest, NonNumericSeedRejectsPlane) {
  setenv("DAOS_FAULTS", "swap.write_error p=0.5", 1);
  setenv("DAOS_FAULT_SEED", "banana", 1);
  EXPECT_EQ(fault::FaultPlane::FromEnv(), nullptr);
}

TEST_F(MalformedFaultEnvTest, OverflowingSeedRejectsPlane) {
  setenv("DAOS_FAULTS", "swap.write_error p=0.5", 1);
  setenv("DAOS_FAULT_SEED", "99999999999999999999999", 1);  // > u64
  EXPECT_EQ(fault::FaultPlane::FromEnv(), nullptr);
  setenv("DAOS_FAULT_SEED", "-7", 1);
  EXPECT_EQ(fault::FaultPlane::FromEnv(), nullptr);
}

TEST_F(MalformedFaultEnvTest, ValidAndEmptySeedsStillArm) {
  setenv("DAOS_FAULTS", "swap.write_error p=0.5", 1);
  setenv("DAOS_FAULT_SEED", "12345", 1);
  auto plane = fault::FaultPlane::FromEnv();
  ASSERT_NE(plane, nullptr);
  EXPECT_EQ(plane->seed(), 12345u);
  setenv("DAOS_FAULT_SEED", "", 1);  // empty keeps the default seed
  EXPECT_NE(fault::FaultPlane::FromEnv(), nullptr);
}

// --- chaos campaign grammar ------------------------------------------------

TEST(MalformedCampaignTest, RejectsBadDirectivesWithLineNumbers) {
  const auto reject = [](std::string_view text, std::string_view fragment) {
    chaos::Campaign campaign;
    campaign.scenario = "keep-me";
    std::string error;
    EXPECT_FALSE(chaos::ParseCampaign(text, &campaign, &error)) << text;
    EXPECT_NE(error.find(fragment), std::string::npos)
        << text << " -> " << error;
    EXPECT_EQ(campaign.scenario, "keep-me") << "reject must not half-apply";
    EXPECT_TRUE(campaign.entries.empty());
  };
  reject("seed banana", "line 1");
  reject("seed 1 2", "seed <u64>");
  reject("scenario", "scenario <name>");
  reject("swap.write_error", "<point> <trigger>");
  reject("swap.write_error frob=1", "unknown trigger");
  reject("swap.write_error p=1.5", "bad probability");
  reject("swap.write_error p=nan", "bad probability");
  reject("swap.write_error every=0", "bad ordinal");
  reject("swap.write_error once=0", "bad one-shot ordinal");
  reject("swap.write_error p=0.1 from=weird", "bad window start");
  reject("swap.write_error p=0.1 until=0us", "bad window end");
  reject("ok.point p=0.1\nswap.write_error p=0.1 until=1s from=2s",
         "line 2: empty window");
  reject("swap.write_error p=0.1 from=1s until=1s", "empty window");
}

TEST(MalformedCampaignTest, EntryWithoutTriggerRejected) {
  chaos::Campaign campaign;
  std::string error;
  EXPECT_FALSE(
      chaos::ParseCampaign("swap.write_error from=1s until=2s", &campaign,
                           &error));
  EXPECT_NE(error.find("no trigger"), std::string::npos) << error;
}

TEST(MalformedCampaignTest, MutantsNeverCrashAndReachAFixpoint) {
  // A repro line must rebuild the exact schedule. The trigger words reach
  // the fault plane's own p=/every=/once= grammar.
  FuzzFixpoint<chaos::Campaign>({
      .golden = "# chaos campaign\n"
                "seed 20220627\n"
                "scenario lifecycle\n"
                "swap.write_error p=0.2 every=100 from=500ms until=2s\n"
                "daemon.crash once=120\n"
                "fleet.rollback_fail p=0.05 from=1.250s\n"
                "tier.migrate_fail every=7 until=4s\n",
      .words = {"seed", "scenario", "fleet", "p=0", "p=1", "p=0.5", "p=1.5",
                "p=-0", "p=nan", "p=1e-320", "p=0x1p-3", "p=0.1234567", "p=",
                "every=0", "every=1", "every=18446744073709551615",
                "every=18446744073709551616", "once=0", "once=7", "from=0",
                "from=1us", "from=1500us", "from=1.0004s", "from=1.001s",
                "from=-1s", "from=1e300s", "until=0us", "until=1ms",
                "until=1800us", "until=1.0006s", "until=2h", "until=0x10s",
                "=", "#", "off", "18446744073709551616", "x", ""},
      .seed = 0xca4b'a160'5eed'0b01ULL,
      .parse =
          [](const std::string& text, std::string* error) {
            chaos::Campaign parsed;
            return chaos::ParseCampaign(text, &parsed, error)
                       ? std::optional<chaos::Campaign>(parsed)
                       : std::nullopt;
          },
      .format = chaos::FormatCampaign,
      .same =
          [](const chaos::Campaign& a, const chaos::Campaign& b) {
            if (a.seed != b.seed || a.scenario != b.scenario ||
                a.entries.size() != b.entries.size())
              return false;
            for (std::size_t i = 0; i < a.entries.size(); ++i) {
              const chaos::CampaignEntry& x = a.entries[i];
              const chaos::CampaignEntry& y = b.entries[i];
              if (x.point != y.point || x.from != y.from ||
                  x.until != y.until ||
                  x.spec.probability != y.spec.probability ||
                  x.spec.every_nth != y.spec.every_nth ||
                  x.spec.once_at != y.spec.once_at)
                return false;
            }
            return true;
          },
  });
}

TEST(MalformedParserTest, SchemeTextReadsBackExactly) {
  // Each line once printed a value that parsed back to another: a size
  // rounded to a tenth of its unit, a sample count to six digits, a
  // percentage to two decimals, and a max_freq above 100% as "max".
  for (const char* line : {"4095 1500K min max min max stat",
                           "min max 18446744073709551616 max min max stat",
                           "min max 0.1234567 max min max stat",
                           "4K max min 12.3456789% 5s max pageout",
                           "min max 50% 101% min max stat"}) {
    const ParseResult first = ParseSchemes(line);
    ASSERT_TRUE(first.ok()) << line;
    const std::string text = first.schemes[0].ToText();
    const ParseResult again = ParseSchemes(text);
    ASSERT_TRUE(again.ok()) << line << " -> " << text;
    EXPECT_EQ(again.schemes[0].bounds(), first.schemes[0].bounds())
        << line << " -> " << text;
    EXPECT_EQ(again.schemes[0].ToText(), text);
  }
  // Values the old forms printed exactly keep their text.
  EXPECT_EQ(ParseSchemes("4K max min min 5s max pageout").schemes[0].ToText(),
            "4.0K max min min 5s max pageout");
  EXPECT_EQ(ParseSchemes("min max 5 80% min max stat").schemes[0].ToText(),
            "min max 5 80% min max stat");
}

TEST(MalformedParserTest, SchemeMutantsNeverCrashAndReachAFixpoint) {
  // What the dbgfs /schemes file reads back must be writable again and
  // install the same schemes.
  FuzzFixpoint<std::vector<damos::Scheme>>({
      .golden = "# prcl, then a governed tiering scheme\n"
                "4K max min min 5s max pageout\n"
                "min 2M 5 80% 100ms 1h migrate_hot quota_sz=16M "
                "quota_ms=10 quota_reset_ms=1000 prio_weights=3,2,1 "
                "wmarks=free_mem_rate,500,400,200\n",
      .words = {"min", "max", "0", "1", "5", "0.5", "1.2345678", "1e-7",
                "1e300", "nan", "inf", "-1", "0%", "1%", "50.5%", "100%",
                "101%", "12.3456789%", "4K", "2M", "1G", "1.5M", "4095",
                "18446744073709551615", "18446744073709551616", "1us",
                "1500us", "1ms", "1.0004s", "5s", "1h", "stat", "pageout",
                "hugepage", "nohugepage", "cold", "migrate_hot",
                "migrate_cold", "quota_sz=0", "quota_sz=1", "quota_ms=0",
                "quota_reset_ms=0", "prio=0,0,0", "prio=1,1,1",
                "wmarks=free_mem_rate,1000,500,0", "wmarks=none", "=", "#",
                "x", ""},
      .seed = 0x5c4e'3e5f'a22e'd00dULL,
      .parse =
          [](const std::string& text, std::string* error)
              -> std::optional<std::vector<damos::Scheme>> {
            ParseResult result = ParseSchemes(text);
            if (!result.ok()) {
              *error = LineError(result.errors[0].line_number,
                                 result.errors[0].message);
              return std::nullopt;
            }
            return std::move(result.schemes);
          },
      .format =
          [](const std::vector<damos::Scheme>& schemes) {
            std::string out;
            for (const damos::Scheme& s : schemes) out += s.ToText() + "\n";
            return out;
          },
      .same =
          [](const std::vector<damos::Scheme>& a,
             const std::vector<damos::Scheme>& b) {
            if (a.size() != b.size()) return false;
            for (std::size_t i = 0; i < a.size(); ++i)
              if (a[i].bounds() != b[i].bounds() ||
                  a[i].policy() != b[i].policy())
                return false;
            return true;
          },
  });
}

// --- hostile numbers --------------------------------------------------------
//
// Each input below used to be accepted — wrapped, half-read, or taken as
// NaN/infinity — by a grammar's own number parsing. On the shared strict
// parsers (util/strings) each is rejected with a line-accurate error.

TEST(MalformedParserTest, NonFiniteFrequencyRejected) {
  const ParseResult nan = ParseSchemes(
      "min max min min 2s max stat\nmin max nan max 2s max pageout\n");
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.errors[0].line_number, 2);
  EXPECT_NE(nan.errors[0].message.find("bad min_freq 'nan'"),
            std::string::npos);
  const ParseResult inf = ParseSchemes("min max inf inf 2s max pageout\n");
  ASSERT_EQ(inf.errors.size(), 2u);
  EXPECT_EQ(inf.errors[0].line_number, 1);
  EXPECT_NE(inf.errors[0].message.find("bad min_freq 'inf'"),
            std::string::npos);
  EXPECT_NE(inf.errors[1].message.find("bad max_freq 'inf'"),
            std::string::npos);
}

TEST(MalformedTierTest, NanLatencyRejected) {
  std::string error;
  ParseGeoExpectError("dram 64M\ncxl 1G lat=nan\n", &error);
  EXPECT_NE(error.find("tier line 2: bad latency 'nan'"), std::string::npos)
      << error;
}

TEST(MalformedRolloutSpecTest, HostileNumbersRejected) {
  const auto reject = [](const std::string& directive,
                         std::string_view fragment) {
    fleet::RolloutSpec spec;
    std::string error;
    EXPECT_FALSE(fleet::FleetController::ParseRolloutSpec(
        "scheme min max min min 1s max stat\n" + directive + "\n", &spec,
        &error))
        << directive;
    EXPECT_NE(error.find(fragment), std::string::npos)
        << directive << " -> " << error;
  };
  reject("gate_epochs -1", "line 2: gate_epochs needs a value");
  reject("gate_epochs 4294967296", "line 2: gate_epochs needs a value");
  reject("max_scheme_errors -1", "line 2: max_scheme_errors needs a value");
  reject("ramp 0.25 0.5x 1", "line 2: bad ramp fraction '0.5x'");
}

TEST(MalformedQuarantineTest, NegativeShardIndexRejected) {
  fleet::FleetConfig config;
  config.nr_shards = 2;
  config.workload.nr_processes = 1;
  config.workload.rss_per_process = 4 * MiB;
  config.use_env_faults = false;
  fleet::FleetController fleet(config);
  std::string error;
  EXPECT_FALSE(fleet.WriteQuarantine("add 1\nadd -1\n", &error));
  EXPECT_NE(error.find("line 2: add needs a shard index"), std::string::npos)
      << error;
  EXPECT_EQ(fleet.QuarantineText(), "") << "reject must not half-apply";
}

TEST(MalformedQuarantineTest, MutantsNeverCrashAndReachAFixpoint) {
  // Each mutant is written to a fleet with nothing quarantined; what
  // /fleet/quarantine then reads back must write to the same state. A
  // rejected write leaves the quarantine set empty.
  fleet::FleetConfig config;
  config.nr_shards = 4;
  config.workload.nr_processes = 1;
  config.workload.rss_per_process = 4 * MiB;
  config.use_env_faults = false;
  const auto fleet = std::make_shared<fleet::FleetController>(config);
  const auto write = [fleet](const std::string& text, std::string* error)
      -> std::optional<std::string> {
    EXPECT_TRUE(fleet->WriteQuarantine("clear", error)) << *error;
    if (!fleet->WriteQuarantine(text, error)) {
      EXPECT_EQ(fleet->QuarantineText(), "") << "half-applied:\n" << text;
      return std::nullopt;
    }
    return fleet->QuarantineText();
  };
  FuzzFixpoint<std::string>({
      .golden = "# operator overrides\n"
                "add 0\n"
                "add 2 # crash-looping\n"
                "release 0\n"
                "clear\n"
                "add 3\n"
                "add 1\n",
      .words = {"add", "release", "clear", "0", "1", "3", "4", "-1", "+1",
                "0x1", "01", "4294967296", "18446744073709551615",
                "18446744073709551616", "#", "\t", "x", ""},
      .seed = 0x90a7'a471'7e55'0001ULL,
      .parse = write,
      .format = [](const std::string& text) { return text; },
  });
}

TEST(MalformedTraceTest, HostileHeaderNumbersRejected) {
  const auto reject = [](const std::string& key, std::string_view value,
                         int line) {
    std::string text = SerializeTrace(TinyTrace());
    const std::size_t at = text.find(key + " ");
    ASSERT_NE(at, std::string::npos) << key;
    text.replace(at, text.find('\n', at) - at, key + " " + std::string(value));
    trace::TraceError error;
    EXPECT_FALSE(trace::ParseTrace(text, &error).has_value()) << key;
    EXPECT_EQ(error.line_number, line) << key;
    EXPECT_NE(error.message.find("bad value for \"" + key + "\""),
              std::string::npos)
        << error.message;
  };
  reject("data_bytes", "-1", 5);  // magic, name, page_shift, quantum_us
  reject("mem_boundness", "nan", 7);
}

TEST(MalformedTraceTest, HostileEventCountReservesNoMoreThanTheBody) {
  // A ~150-byte header claiming 2^24 events and carrying no body must not
  // make the parser ask for 2^24 TraceEvents (1 GiB) up front.
  const std::string text =
      SerializeHeader(trace::TraceMeta{}, 1ULL << 24, 0);
  g_largest_alloc = 0;
  g_watch_allocs = true;
  std::optional<trace::Trace> parsed;
  trace::TraceError error;
  EXPECT_NO_THROW(parsed = trace::ParseTrace(text, &error));
  g_watch_allocs = false;
  EXPECT_FALSE(parsed.has_value());
  EXPECT_LE(g_largest_alloc.load(), 64 * KiB);
}

TEST(MalformedTraceTest, NameWithEmbeddedNulRoundTrips) {
  // Found by the trace mutants below: the header writer stopped the name at
  // its first NUL byte, so a parsed trace did not write back as itself.
  trace::Trace t = TinyTrace();
  t.meta.name = std::string("a\0b", 3);
  trace::TraceError error;
  const std::optional<trace::Trace> parsed =
      trace::ParseTrace(SerializeTrace(t), &error);
  ASSERT_TRUE(parsed.has_value()) << error.Format();
  EXPECT_EQ(parsed->meta.name, t.meta.name);
}

// --- trace file mutants (src/trace) ---------------------------------------

bool SameTrace(const trace::Trace& a, const trace::Trace& b) {
  const trace::TraceMeta& x = a.meta;
  const trace::TraceMeta& y = b.meta;
  return x.name == y.name && x.page_shift == y.page_shift &&
         x.quantum_us == y.quantum_us && x.data_bytes == y.data_bytes &&
         x.runtime_s == y.runtime_s && x.mem_boundness == y.mem_boundness &&
         x.thp_gain == y.thp_gain && x.zram_ratio == y.zram_ratio &&
         a.events == b.events;
}

std::optional<trace::Trace> ReadTrace(const std::string& text,
                                      std::string* error) {
  trace::TraceError e;
  std::optional<trace::Trace> t = trace::ParseTrace(text, &e);
  if (!t.has_value()) *error = e.Format();
  return t;
}

TEST(MalformedTraceTest, MutantsNeverCrashAndReachAFixpoint) {
  // A recorded trace parsed and written again must stay parseable. Header
  // errors name their line; body errors name their byte offset.
  FuzzFixpoint<trace::Trace>({
      .golden = SerializeTrace(TinyTrace()),
      .words = {"0", "1", "9", "10", "12", "20", "21", "62", "-1", "-0",
                "4294967296", "18446744073709551615", "18446744073709551616",
                "0x1p+1", "-0x1p-1", "1e308", "1e309", "nan", "inf", "name",
                "events", "chunks", "body", "daos-trace", "v1", "x", ""},
      .seed = 0x7ace'f11e'0b0d'1e55ULL,
      .parse = ReadTrace,
      .format = [](const trace::Trace& t) { return SerializeTrace(t); },
      .same = SameTrace,
      .names_line =
          [](std::string_view error) {
            if (NamesLine(error)) return true;
            if (!error.starts_with("offset ")) return false;
            error.remove_prefix(7);
            const std::size_t colon = error.find(": ");
            return colon != std::string_view::npos &&
                   colon + 2 < error.size() &&
                   ParseU64(error.substr(0, colon)).has_value();
          },
  });
}

/// The ingest grammar under the mutation fuzzer: an accepted text's trace
/// must survive SerializeTrace -> ParseTrace unchanged, and a rejection
/// must name its line.
FuzzGrammar<trace::Trace> IngestGrammar(std::string golden,
                                        std::vector<const char*> words,
                                        std::uint64_t seed) {
  return {
      .golden = std::move(golden),
      .words = std::move(words),
      .seed = seed,
      .parse =
          [](const std::string& text, std::string* error) {
            trace::IngestError e;
            std::optional<trace::Trace> t =
                trace::IngestText(text, "fuzz", trace::IngestOptions{}, &e);
            if (!t.has_value()) *error = LineError(e.line_number, e.message);
            return t;
          },
      .format = [](const trace::Trace& t) { return SerializeTrace(t); },
      .reparse = ReadTrace,
      .same = SameTrace,
  };
}

TEST(MalformedIngestTest, LackeyMutantsNeverCrashAndRoundTrip) {
  FuzzFixpoint(IngestGrammar(
      "==4242== Lackey, an example Valgrind tool\n"
      "I  0400d7d4,8\n"
      " L 10000000,4\n"
      " S 10001000,64\n"
      " M 10400000,8\n"
      " L 7ff000ff0,4096\n",
      {"I", "L", "S", "M", "X", "0", "1", "fff", "0x1000", "10000000,0",
       "10000000,1", "10000000,1073741824", "10000000,1073741825",
       "1000000000000000,4", "1000000000000001,4", "ffffffffffffffff,1",
       "10000000,-4", "10000000,+4", ",4", "10000000,", "==", "--", "#",
       "x", ""},
      0x1ac4'e7ace'0001ULL));
}

TEST(MalformedIngestTest, CsvMutantsNeverCrashAndRoundTrip) {
  FuzzFixpoint(IngestGrammar(
      "time_us,op,addr,size\n"
      "0,map,0x10000000,8388608\n"
      "0,w,0x10000000,65536\n"
      "100,r,0x10000400,4096\n"
      "5000,R,268439552,64\n"
      "20000,unmap,0x10000000,0\n",
      {"0,r,0x1000,1", "0,w,0x1000,4096", "1,unmap,0x1000,0",
       "0,map,0x0,68719476736", "0,map,0x0,68719476737",
       "0,r,0x1000000000000000,1", "0,r,0x1000000000000001,1",
       "0,r,0x1000,1073741825", "0,r,0x1000,0", "-1,r,0x1000,4",
       "18446744073709551615,r,0x1000,4", "18446744073709551616,r,0x1000,4",
       "0,r,0x1000", "0,r,0x1000,4,5", "0,frobnicate,0x1000,4",
       "time_us,op,addr,size", "0,,0x1000,4", ",,,", "#", "==", "x", ""},
      0xc5f0'e7ace'0002ULL));
}

TEST(MalformedIngestTest, CsvNegativeTimeRejected) {
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestText("time_us,op,addr,size\n"
                                 "0,r,0x1000,4\n"
                                 "-1,r,0x1000,4\n",
                                 "x", trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_EQ(error.line_number, 3);
  EXPECT_NE(error.message.find("bad time_us"), std::string::npos);
}

TEST(MalformedIngestTest, CsvTimePastCeilingRejected) {
  // The replay ends one quantum after the last row; at 2^64 - 1 that sum
  // wrapped and the trace claimed a runtime of about 5 ms.
  trace::IngestError error;
  EXPECT_FALSE(trace::IngestText("time_us,op,addr,size\n"
                                 "0,r,0x1000,4\n"
                                 "18446744073709551615,r,0x1000,4\n",
                                 "x", trace::IngestOptions{}, &error)
                   .has_value());
  EXPECT_EQ(error.line_number, 3);
  EXPECT_NE(error.message.find("time_us past"), std::string::npos);

  // The last accepted row ends exactly at the ceiling, exact as a double.
  const trace::IngestOptions options;
  const SimTimeUs last = trace::kMaxIngestEndUs - options.quantum_us;
  const std::string row = ",r,0x1000,4\n";
  const std::optional<trace::Trace> t = trace::IngestText(
      "0" + row + std::to_string(last) + row, "x", options, &error);
  ASSERT_TRUE(t.has_value()) << error.message;
  EXPECT_EQ(t->meta.runtime_s, static_cast<double>(trace::kMaxIngestEndUs) /
                                   static_cast<double>(kUsPerSec));
  EXPECT_FALSE(trace::IngestText(std::to_string(last + 1) + row, "x", options,
                                 &error)
                   .has_value());
  EXPECT_EQ(error.line_number, 1);
}

TEST_F(MalformedDbgfsTest, HostileAttrsNumbersRejectedAndUnchanged) {
  const std::string before = fs_.Read("/damon/attrs").value();
  std::string error;
  EXPECT_FALSE(
      fs_.Write("/damon/attrs", "5000 100000 -1 10 1000", &error));
  EXPECT_NE(error.find("bad number '-1'"), std::string::npos) << error;
  // max_nr_regions is a 32-bit field: 2^32 must not wrap to 0.
  EXPECT_FALSE(fs_.Write("/damon/attrs", "5000 100000 1000000 10 4294967296",
                         &error));
  EXPECT_NE(error.find("bad number '4294967296'"), std::string::npos)
      << error;
  EXPECT_EQ(fs_.Read("/damon/attrs").value(), before);
}

TEST(MalformedChaosFsTest, OverflowingRunCountRejected) {
  dbgfs::PseudoFs fs;
  chaos::ChaosEngine engine(chaos::ChaosConfig{});
  const dbgfs::Mount chaos_fs = dbgfs::MountChaos(&fs, &engine);
  std::string error;
  EXPECT_FALSE(
      fs.Write("/chaos/status", "run 99999999999999999999999", &error));
  EXPECT_NE(error.find("expected 'run <1..1024>'"), std::string::npos)
      << error;
  EXPECT_NE(fs.Read("/chaos/status").value().find("campaigns 0"),
            std::string::npos);
}

}  // namespace
}  // namespace daos
