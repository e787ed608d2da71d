#include "lifecycle/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <string>

#include "damos/parser.hpp"
#include "util/strings.hpp"

namespace daos::lifecycle {
namespace {

using damon::DamosAction;
using damos::FreqBound;

// ---------------------------------------------------------------- writing

// Doubles are written as hex-floats: "%a" round-trips every finite value
// exactly through strtod, which "%f"/"%g" do not — and quota charges or
// frequency bounds that drift by one ulp across a restore would break the
// bit-identical-continuation guarantee.
void AppendDouble(std::string& out, double v) { AppendF(out, " %a", v); }

void AppendU64(std::string& out, std::uint64_t v) {
  AppendF(out, " %" PRIu64, v);
}

const char* FreqUnitName(FreqBound::Unit unit) {
  return unit == FreqBound::Unit::kPercent ? "percent" : "samples";
}

// ---------------------------------------------------------------- parsing

/// Line-by-line cursor over the checkpoint text. Every accessor records a
/// line-accurate error and flips `failed` — callers bail out once at the
/// end of each record instead of checking every field read.
struct Reader {
  explicit Reader(std::string_view text) : lines(text) {}

  LineCursor lines;  // errors on missing records point past the last line
  CheckpointError error;
  bool failed = false;

  bool Fail(std::string message) {
    if (!failed) {
      failed = true;
      error.line_number = lines.line_no();
      error.message = std::move(message);
    }
    return false;
  }

  /// Next line split into whitespace tokens; empty vector = end of input.
  std::vector<std::string_view> NextLine() {
    std::string_view line;
    while (lines.Next(&line)) {
      std::vector<std::string_view> tokens = SplitWhitespace(line);
      if (!tokens.empty()) return tokens;
    }
    return {};
  }

  /// Next line, required to carry `key` plus exactly `nr_fields` values.
  std::vector<std::string_view> Record(std::string_view key,
                                       std::size_t nr_fields) {
    if (failed) return {};
    std::vector<std::string_view> tokens = NextLine();
    if (tokens.empty()) {
      Fail("unexpected end of checkpoint (expected '" + std::string(key) +
           "' record)");
      return {};
    }
    if (tokens[0] != key) {
      Fail("expected '" + std::string(key) + "' record, got '" +
           std::string(tokens[0]) + "'");
      return {};
    }
    if (tokens.size() != nr_fields + 1) {
      Fail("'" + std::string(key) + "' record needs " +
           std::to_string(nr_fields) + " fields, got " +
           std::to_string(tokens.size() - 1));
      return {};
    }
    return tokens;
  }

  std::uint64_t U64(std::string_view token) {
    if (failed) return 0;
    const auto v = ParseU64(token);
    if (!v) {
      Fail("bad unsigned value '" + std::string(token) + "'");
      return 0;
    }
    return *v;
  }

  std::uint32_t U32(std::string_view token) {
    const std::uint64_t v = U64(token);
    if (!failed && v > 0xffffffffull)
      Fail("value '" + std::string(token) + "' overflows 32 bits");
    return static_cast<std::uint32_t>(v);
  }

  bool Bool(std::string_view token) {
    if (failed) return false;
    if (token == "0") return false;
    if (token == "1") return true;
    Fail("bad boolean '" + std::string(token) + "' (want 0 or 1)");
    return false;
  }

  double Double(std::string_view token) {
    if (failed) return 0.0;
    const auto v = ParseFiniteDouble(token);
    if (!v) {
      Fail("bad floating-point value '" + std::string(token) + "'");
      return 0.0;
    }
    return *v;
  }
};

}  // namespace

std::string SerializeCheckpoint(const Checkpoint& cp) {
  std::string out;
  out.reserve(4096);
  AppendF(out, "%.*s v%d\n", static_cast<int>(kCheckpointMagic.size()),
          kCheckpointMagic.data(), cp.version);
  AppendF(out, "at %" PRIu64 "\n", cp.at);

  const damon::MonitoringAttrs& a = cp.attrs;
  out += "attrs";
  AppendU64(out, a.sampling_interval);
  AppendU64(out, a.aggregation_interval);
  AppendU64(out, a.regions_update_interval);
  AppendU64(out, a.min_nr_regions);
  AppendU64(out, a.max_nr_regions);
  AppendU64(out, a.adaptive ? 1 : 0);
  AppendU64(out, a.age_reset_threshold);
  out += '\n';

  const damon::MonitorSchedState& s = cp.sched;
  AppendF(out, "sched %d", s.primed ? 1 : 0);
  AppendU64(out, s.next_sample);
  AppendU64(out, s.next_aggregate);
  AppendU64(out, s.next_update);
  out += '\n';
  out += "rng";
  for (std::uint64_t w : s.rng_state) AppendU64(out, w);
  out += '\n';
  out += "counters";
  AppendU64(out, s.counters.samples);
  AppendU64(out, s.counters.aggregations);
  AppendU64(out, s.counters.region_splits);
  AppendU64(out, s.counters.region_merges);
  AppendU64(out, s.counters.regions_updates);
  AppendDouble(out, s.counters.cpu_us);
  out += '\n';

  AppendF(out, "engine %d\n", cp.engine_disarmed ? 1 : 0);

  AppendF(out, "targets %zu\n", cp.targets.size());
  for (std::size_t ti = 0; ti < cp.targets.size(); ++ti) {
    const std::uint64_t gen =
        ti < s.target_layout_gens.size() ? s.target_layout_gens[ti] : ~0ull;
    AppendF(out, "target %" PRIu64 " %zu\n", gen,
            cp.targets[ti].regions.size());
    for (const damon::Region& r : cp.targets[ti].regions) {
      out += "region";
      AppendU64(out, r.start);
      AppendU64(out, r.end);
      AppendU64(out, r.nr_accesses);
      AppendU64(out, r.last_nr_accesses);
      AppendU64(out, r.age);
      AppendU64(out, r.sampling_addr);
      out += '\n';
    }
  }

  AppendF(out, "schemes %zu\n", cp.schemes.size());
  for (const CheckpointScheme& cs : cp.schemes) {
    // The one-line Scheme::ToText() form is human-facing and lossy
    // (FormatSize rounds); a checkpoint needs the raw fields back exactly,
    // so every numeric is serialized directly.
    const damos::SchemeBounds& b = cs.scheme.bounds();
    out += "scheme";
    AppendU64(out, b.min_size);
    AppendU64(out, b.max_size);
    AppendF(out, " %s", FreqUnitName(b.min_freq.unit));
    AppendDouble(out, b.min_freq.value);
    AppendF(out, " %s", FreqUnitName(b.max_freq.unit));
    AppendDouble(out, b.max_freq.value);
    AppendU64(out, b.min_age);
    AppendU64(out, b.max_age);
    AppendF(out, " %s", std::string(DamosActionName(b.action)).c_str());
    out += '\n';

    const governor::GovernorPolicy& p = cs.scheme.policy();
    out += "policy";
    AppendU64(out, p.quota.sz_bytes);
    AppendU64(out, p.quota.time_us);
    AppendU64(out, p.quota.reset_interval);
    AppendU64(out, p.prio.sz);
    AppendU64(out, p.prio.freq);
    AppendU64(out, p.prio.age);
    AppendF(out, " %s", std::string(WatermarkMetricName(p.wmarks.metric)).c_str());
    AppendU64(out, p.wmarks.interval);
    AppendU64(out, p.wmarks.high);
    AppendU64(out, p.wmarks.mid);
    AppendU64(out, p.wmarks.low);
    out += '\n';

    const damos::SchemeStats& st = cs.scheme.stats();
    out += "stats";
    AppendU64(out, st.nr_tried);
    AppendU64(out, st.sz_tried);
    AppendU64(out, st.nr_applied);
    AppendU64(out, st.sz_applied);
    AppendU64(out, st.nr_errors);
    AppendU64(out, st.nr_backoffs);
    AppendU64(out, st.nr_skipped);
    AppendU64(out, st.qt_exceeds);
    AppendU64(out, st.sz_quota_exceeded);
    AppendU64(out, st.nr_wmark_deactivations);
    AppendU64(out, st.wmark_active ? 1 : 0);
    out += '\n';

    AppendF(out, "backoff %" PRIu32 " %" PRIu64 "\n", cs.backoff.backoff_exp,
            cs.backoff.backoff_until);

    const governor::QuotaState& q = cs.slot.quota;
    out += "quota";
    AppendU64(out, q.window_start);
    AppendU64(out, q.charged_sz);
    AppendDouble(out, q.charged_us);
    AppendU64(out, q.esz);
    AppendU64(out, q.total_charged_sz);
    AppendDouble(out, q.total_charged_us);
    out += '\n';

    AppendF(out, "wmark %d %" PRIu64 "\n", cs.slot.wmark_active ? 1 : 0,
            cs.slot.next_wmark_check);
  }

  AppendF(out, "recorder %" PRIu64 " %" PRIu64 " %zu\n", cp.recorder_every,
          cp.recorder_next, cp.recorder_tail.size());
  for (const damon::Snapshot& snap : cp.recorder_tail) {
    AppendF(out, "snapshot %" PRIu64 " %d %zu\n", snap.at, snap.target_index,
            snap.regions.size());
    for (const damon::SnapshotRegion& r : snap.regions) {
      out += "srow";
      AppendU64(out, r.start);
      AppendU64(out, r.end);
      AppendU64(out, r.nr_accesses);
      AppendU64(out, r.age);
      out += '\n';
    }
  }

  out += "end\n";
  return out;
}

std::optional<Checkpoint> ParseCheckpoint(std::string_view text,
                                          CheckpointError* error) {
  Reader in(text);
  Checkpoint cp;

  auto fail = [&]() -> std::optional<Checkpoint> {
    if (error != nullptr) *error = in.error;
    return std::nullopt;
  };

  // Header: "daos-checkpoint v<version>". Version skew is rejected here —
  // silently reinterpreting a future format would restore garbage state.
  {
    std::vector<std::string_view> tokens = in.NextLine();
    if (tokens.empty()) {
      in.Fail("empty checkpoint (expected '" + std::string(kCheckpointMagic) +
              " v1' header)");
      return fail();
    }
    if (tokens[0] != kCheckpointMagic || tokens.size() != 2 ||
        tokens[1].size() < 2 || tokens[1][0] != 'v') {
      in.Fail("not a checkpoint: expected '" + std::string(kCheckpointMagic) +
              " v1' header");
      return fail();
    }
    const std::uint64_t version = in.U64(tokens[1].substr(1));
    if (in.failed) return fail();
    if (version != static_cast<std::uint64_t>(kCheckpointVersion)) {
      in.Fail("unsupported checkpoint version v" + std::to_string(version) +
              " (this build reads v" + std::to_string(kCheckpointVersion) +
              ")");
      return fail();
    }
    cp.version = static_cast<int>(version);
  }

  {
    std::vector<std::string_view> t = in.Record("at", 1);
    if (in.failed) return fail();
    cp.at = in.U64(t[1]);
  }
  {
    std::vector<std::string_view> t = in.Record("attrs", 7);
    if (in.failed) return fail();
    cp.attrs.sampling_interval = in.U64(t[1]);
    cp.attrs.aggregation_interval = in.U64(t[2]);
    cp.attrs.regions_update_interval = in.U64(t[3]);
    cp.attrs.min_nr_regions = in.U32(t[4]);
    cp.attrs.max_nr_regions = in.U32(t[5]);
    cp.attrs.adaptive = in.Bool(t[6]);
    cp.attrs.age_reset_threshold = in.U32(t[7]);
    if (!in.failed && cp.attrs.sampling_interval == 0)
      in.Fail("attrs: sampling interval must be > 0");
    if (!in.failed &&
        cp.attrs.aggregation_interval < cp.attrs.sampling_interval)
      in.Fail("attrs: aggregation interval below sampling interval");
    if (!in.failed && (cp.attrs.min_nr_regions == 0 ||
                       cp.attrs.max_nr_regions < cp.attrs.min_nr_regions))
      in.Fail("attrs: need 0 < min_nr_regions <= max_nr_regions");
  }
  {
    std::vector<std::string_view> t = in.Record("sched", 4);
    if (in.failed) return fail();
    cp.sched.primed = in.Bool(t[1]);
    cp.sched.next_sample = in.U64(t[2]);
    cp.sched.next_aggregate = in.U64(t[3]);
    cp.sched.next_update = in.U64(t[4]);
  }
  {
    std::vector<std::string_view> t = in.Record("rng", 4);
    if (in.failed) return fail();
    for (int i = 0; i < 4; ++i) cp.sched.rng_state[i] = in.U64(t[i + 1]);
    if (!in.failed && cp.sched.rng_state[0] == 0 &&
        cp.sched.rng_state[1] == 0 && cp.sched.rng_state[2] == 0 &&
        cp.sched.rng_state[3] == 0)
      in.Fail("rng: the all-zero state is invalid for xoshiro256**");
  }
  {
    std::vector<std::string_view> t = in.Record("counters", 6);
    if (in.failed) return fail();
    cp.sched.counters.samples = in.U64(t[1]);
    cp.sched.counters.aggregations = in.U64(t[2]);
    cp.sched.counters.region_splits = in.U64(t[3]);
    cp.sched.counters.region_merges = in.U64(t[4]);
    cp.sched.counters.regions_updates = in.U64(t[5]);
    cp.sched.counters.cpu_us = in.Double(t[6]);
  }
  {
    std::vector<std::string_view> t = in.Record("engine", 1);
    if (in.failed) return fail();
    cp.engine_disarmed = in.Bool(t[1]);
  }

  std::uint64_t nr_targets = 0;
  {
    std::vector<std::string_view> t = in.Record("targets", 1);
    if (in.failed) return fail();
    nr_targets = in.U64(t[1]);
    if (!in.failed && nr_targets > 4096)
      in.Fail("implausible target count " + std::to_string(nr_targets));
  }
  if (in.failed) return fail();
  for (std::uint64_t ti = 0; ti < nr_targets; ++ti) {
    std::vector<std::string_view> t = in.Record("target", 2);
    if (in.failed) return fail();
    cp.sched.target_layout_gens.push_back(in.U64(t[1]));
    const std::uint64_t nr_regions = in.U64(t[2]);
    if (!in.failed && nr_regions > 1u << 20)
      in.Fail("implausible region count " + std::to_string(nr_regions));
    if (in.failed) return fail();
    CheckpointTarget target;
    target.regions.reserve(nr_regions);
    for (std::uint64_t ri = 0; ri < nr_regions; ++ri) {
      std::vector<std::string_view> r = in.Record("region", 6);
      if (in.failed) return fail();
      damon::Region region;
      region.start = in.U64(r[1]);
      region.end = in.U64(r[2]);
      region.nr_accesses = in.U32(r[3]);
      region.last_nr_accesses = in.U32(r[4]);
      region.age = in.U32(r[5]);
      region.sampling_addr = in.U64(r[6]);
      if (!in.failed && region.end <= region.start)
        in.Fail("region end must be above start");
      if (in.failed) return fail();
      target.regions.push_back(region);
    }
    cp.targets.push_back(std::move(target));
  }

  std::uint64_t nr_schemes = 0;
  {
    std::vector<std::string_view> t = in.Record("schemes", 1);
    if (in.failed) return fail();
    nr_schemes = in.U64(t[1]);
    if (!in.failed && nr_schemes > 4096)
      in.Fail("implausible scheme count " + std::to_string(nr_schemes));
  }
  if (in.failed) return fail();
  auto parse_freq_unit = [&](std::string_view token) {
    if (token == "percent") return FreqBound::Unit::kPercent;
    if (token == "samples") return FreqBound::Unit::kSamples;
    in.Fail("bad frequency unit '" + std::string(token) +
            "' (want percent|samples)");
    return FreqBound::Unit::kPercent;
  };
  for (std::uint64_t si = 0; si < nr_schemes; ++si) {
    CheckpointScheme cs;
    {
      std::vector<std::string_view> t = in.Record("scheme", 9);
      if (in.failed) return fail();
      damos::SchemeBounds b;
      b.min_size = in.U64(t[1]);
      b.max_size = in.U64(t[2]);
      b.min_freq.unit = parse_freq_unit(t[3]);
      b.min_freq.value = in.Double(t[4]);
      b.max_freq.unit = parse_freq_unit(t[5]);
      b.max_freq.value = in.Double(t[6]);
      b.min_age = in.U64(t[7]);
      b.max_age = in.U64(t[8]);
      if (!in.failed && !damos::ParseAction(t[9], &b.action))
        in.Fail("unknown scheme action '" + std::string(t[9]) + "'");
      if (in.failed) return fail();
      cs.scheme = damos::Scheme(b);
    }
    {
      std::vector<std::string_view> t = in.Record("policy", 11);
      if (in.failed) return fail();
      governor::GovernorPolicy p;
      p.quota.sz_bytes = in.U64(t[1]);
      p.quota.time_us = in.U64(t[2]);
      p.quota.reset_interval = in.U64(t[3]);
      p.prio.sz = in.U32(t[4]);
      p.prio.freq = in.U32(t[5]);
      p.prio.age = in.U32(t[6]);
      if (!in.failed && !governor::ParseWatermarkMetric(t[7], &p.wmarks.metric))
        in.Fail("unknown watermark metric '" + std::string(t[7]) + "'");
      p.wmarks.interval = in.U64(t[8]);
      p.wmarks.high = in.U32(t[9]);
      p.wmarks.mid = in.U32(t[10]);
      p.wmarks.low = in.U32(t[11]);
      std::string policy_error;
      if (!in.failed && !governor::ValidatePolicy(p, &policy_error))
        in.Fail("invalid governor policy: " + policy_error);
      if (in.failed) return fail();
      cs.scheme.policy() = p;
    }
    {
      std::vector<std::string_view> t = in.Record("stats", 11);
      if (in.failed) return fail();
      damos::SchemeStats& st = cs.scheme.stats();
      st.nr_tried = in.U64(t[1]);
      st.sz_tried = in.U64(t[2]);
      st.nr_applied = in.U64(t[3]);
      st.sz_applied = in.U64(t[4]);
      st.nr_errors = in.U64(t[5]);
      st.nr_backoffs = in.U64(t[6]);
      st.nr_skipped = in.U64(t[7]);
      st.qt_exceeds = in.U64(t[8]);
      st.sz_quota_exceeded = in.U64(t[9]);
      st.nr_wmark_deactivations = in.U64(t[10]);
      st.wmark_active = in.Bool(t[11]);
    }
    {
      std::vector<std::string_view> t = in.Record("backoff", 2);
      if (in.failed) return fail();
      cs.backoff.backoff_exp = in.U32(t[1]);
      cs.backoff.backoff_until = in.U64(t[2]);
    }
    {
      std::vector<std::string_view> t = in.Record("quota", 6);
      if (in.failed) return fail();
      cs.slot.quota.window_start = in.U64(t[1]);
      cs.slot.quota.charged_sz = in.U64(t[2]);
      cs.slot.quota.charged_us = in.Double(t[3]);
      cs.slot.quota.esz = in.U64(t[4]);
      cs.slot.quota.total_charged_sz = in.U64(t[5]);
      cs.slot.quota.total_charged_us = in.Double(t[6]);
    }
    {
      std::vector<std::string_view> t = in.Record("wmark", 2);
      if (in.failed) return fail();
      cs.slot.wmark_active = in.Bool(t[1]);
      cs.slot.next_wmark_check = in.U64(t[2]);
    }
    cp.schemes.push_back(std::move(cs));
  }

  std::uint64_t nr_snapshots = 0;
  {
    std::vector<std::string_view> t = in.Record("recorder", 3);
    if (in.failed) return fail();
    cp.recorder_every = in.U64(t[1]);
    cp.recorder_next = in.U64(t[2]);
    nr_snapshots = in.U64(t[3]);
    if (!in.failed && nr_snapshots > 1u << 20)
      in.Fail("implausible snapshot count " + std::to_string(nr_snapshots));
  }
  if (in.failed) return fail();
  for (std::uint64_t si = 0; si < nr_snapshots; ++si) {
    std::vector<std::string_view> t = in.Record("snapshot", 3);
    if (in.failed) return fail();
    damon::Snapshot snap;
    snap.at = in.U64(t[1]);
    snap.target_index = static_cast<int>(in.U32(t[2]));
    const std::uint64_t nr_rows = in.U64(t[3]);
    if (!in.failed && nr_rows > 1u << 20)
      in.Fail("implausible snapshot row count " + std::to_string(nr_rows));
    if (in.failed) return fail();
    snap.regions.reserve(nr_rows);
    for (std::uint64_t ri = 0; ri < nr_rows; ++ri) {
      std::vector<std::string_view> r = in.Record("srow", 4);
      if (in.failed) return fail();
      damon::SnapshotRegion row;
      row.start = in.U64(r[1]);
      row.end = in.U64(r[2]);
      row.nr_accesses = in.U32(r[3]);
      row.age = in.U32(r[4]);
      if (in.failed) return fail();
      snap.regions.push_back(row);
    }
    cp.recorder_tail.push_back(std::move(snap));
  }

  in.Record("end", 0);
  if (in.failed) return fail();
  if (!in.NextLine().empty()) {
    in.Fail("trailing data after 'end' record");
    return fail();
  }
  return cp;
}

Checkpoint CaptureCheckpoint(const damon::DamonContext& ctx,
                             const damos::SchemesEngine& engine,
                             const damon::Recorder* recorder, SimTimeUs now,
                             std::size_t recorder_tail_max) {
  Checkpoint cp;
  cp.at = now;
  cp.attrs = ctx.attrs();
  cp.sched = ctx.ExportSchedState();
  for (const damon::DamonTarget& target : ctx.targets()) {
    CheckpointTarget ct;
    ct.regions = target.regions;
    cp.targets.push_back(std::move(ct));
  }
  cp.engine_disarmed = engine.disarmed();
  for (std::size_t si = 0; si < engine.schemes().size(); ++si) {
    CheckpointScheme cs;
    cs.scheme = engine.schemes()[si];
    cs.backoff = engine.ExportSlotRuntime(si);
    cs.slot = si < engine.governor().nr_slots()
                  ? engine.governor().ExportSlot(si)
                  : governor::Governor::SlotState{};
    cp.schemes.push_back(std::move(cs));
  }
  if (recorder != nullptr) {
    cp.recorder_every = recorder->every();
    cp.recorder_next = recorder->next();
    const std::vector<damon::Snapshot>& all = recorder->snapshots();
    const std::size_t keep = std::min(all.size(), recorder_tail_max);
    cp.recorder_tail.assign(all.end() - static_cast<std::ptrdiff_t>(keep),
                            all.end());
  }
  return cp;
}

bool RestoreCheckpoint(const Checkpoint& cp, damon::DamonContext& ctx,
                       damos::SchemesEngine& engine,
                       damon::Recorder* recorder, std::string* error) {
  if (ctx.targets().size() != cp.targets.size()) {
    if (error != nullptr)
      *error = "checkpoint has " + std::to_string(cp.targets.size()) +
               " targets but the rebuilt context has " +
               std::to_string(ctx.targets().size());
    return false;
  }

  ctx.attrs() = cp.attrs;
  for (std::size_t ti = 0; ti < cp.targets.size(); ++ti)
    ctx.targets()[ti].regions = cp.targets[ti].regions;
  ctx.ImportSchedState(cp.sched);

  std::vector<damos::Scheme> schemes;
  schemes.reserve(cp.schemes.size());
  for (const CheckpointScheme& cs : cp.schemes) schemes.push_back(cs.scheme);
  engine.Install(std::move(schemes));
  for (std::size_t si = 0; si < cp.schemes.size(); ++si) {
    engine.ImportSlotRuntime(si, cp.schemes[si].backoff);
    engine.governor().ImportSlot(si, cp.schemes[si].slot);
  }
  engine.SetDisarmed(cp.engine_disarmed);

  if (recorder != nullptr)
    recorder->RestoreTail(cp.recorder_tail, cp.recorder_next);
  return true;
}

}  // namespace daos::lifecycle
