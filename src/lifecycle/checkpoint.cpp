#include "lifecycle/checkpoint.hpp"

#include <cinttypes>
#include <concepts>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "damos/parser.hpp"
#include "util/strings.hpp"

namespace daos::lifecycle {
namespace {

using damon::DamosAction;
using damos::FreqBound;
using governor::WatermarkMetric;

/// The element count that closes a record ("targets 2", "target <gen> 5").
/// The writer prints the vector's size; the reader checks the count against
/// `cap` before it resizes the vector, so the walk then fills the elements.
template <typename Vec>
struct Count {
  Vec& items;
  std::uint64_t cap;
  const char* what;
};

/// The checkpoint format: every record once, in file order, for both the
/// Writer and the Reader. `io.Check` is the reader's validation of the
/// record just read (the writer ignores it), so its error names that line.
/// The header, the "end" record and the trailing-data check stay outside.
template <typename Io, typename Cp>
void Walk(Io& io, Cp& cp) {
  auto& a = cp.attrs;
  auto& s = cp.sched;
  auto& c = s.counters;
  std::string why;
  io("at", cp.at);
  io("attrs", a.sampling_interval, a.aggregation_interval,
     a.regions_update_interval, a.min_nr_regions, a.max_nr_regions,
     a.adaptive, a.age_reset_threshold);
  const bool attrs_ok = damon::ValidateAttrs(a, &why);
  io.Check(attrs_ok, why);
  io("sched", s.primed, s.next_sample, s.next_aggregate, s.next_update);
  io("rng", s.rng_state[0], s.rng_state[1], s.rng_state[2], s.rng_state[3]);
  io.Check(s.rng_state != decltype(s.rng_state){},
           "rng: the all-zero state is invalid for xoshiro256**");
  io("counters", c.samples, c.aggregations, c.region_splits, c.region_merges,
     c.regions_updates, c.cpu_us);
  io("engine", cp.engine_disarmed);

  io("targets", Count{cp.targets, 4096, "target"});
  auto& gens = s.target_layout_gens;
  for (std::size_t ti = 0; ti < cp.targets.size(); ++ti) {
    std::uint64_t gen = ti < gens.size() ? gens[ti] : ~0ull;
    io("target", gen, Count{cp.targets[ti].regions, 1u << 20, "region"});
    if constexpr (!std::is_const_v<Cp>) gens.push_back(gen);
    for (auto& r : cp.targets[ti].regions) {
      io("region", r.start, r.end, r.nr_accesses, r.last_nr_accesses, r.age,
         r.sampling_addr);
      io.Check(r.end > r.start, "region end must be above start");
    }
  }

  io("schemes", Count{cp.schemes, 4096, "scheme"});
  for (auto& scheme : cp.schemes) {
    // Scheme::ToText() is human-facing and lossy (FormatSize rounds); a
    // checkpoint carries every raw field.
    auto& b = scheme.bounds();
    io("scheme", b.min_size, b.max_size, b.min_freq.unit, b.min_freq.value,
       b.max_freq.unit, b.max_freq.value, b.min_age, b.max_age, b.action);
    auto& p = scheme.policy();
    io("policy", p.quota.sz_bytes, p.quota.time_us, p.quota.reset_interval,
       p.prio.sz, p.prio.freq, p.prio.age, p.wmarks.metric, p.wmarks.interval,
       p.wmarks.high, p.wmarks.mid, p.wmarks.low);
    const bool policy_ok = governor::ValidatePolicy(p, &why);
    io.Check(policy_ok, "invalid governor policy: " + why);
    auto& st = scheme.stats();
    io("stats", st.nr_tried, st.sz_tried, st.nr_applied, st.sz_applied,
       st.nr_errors, st.nr_backoffs, st.nr_skipped, st.qt_exceeds,
       st.sz_quota_exceeded, st.nr_wmark_deactivations, st.wmark_active);
    auto& rt = scheme.runtime();
    io("backoff", rt.backoff_exp, rt.backoff_until);
    auto& q = rt.quota;
    io("quota", q.window_start, q.charged_sz, q.charged_us, q.esz,
       q.total_charged_sz, q.total_charged_us);
    io("wmark", rt.wmark.active, rt.wmark.next_check);
  }

  io("recorder", cp.recorder_every, cp.recorder_next,
     Count{cp.recorder_tail, 1u << 20, "snapshot"});
  for (auto& snap : cp.recorder_tail) {
    io("snapshot", snap.at, snap.target_index,
       Count{snap.regions, 1u << 20, "snapshot row"});
    for (auto& r : snap.regions)
      io("srow", r.start, r.end, r.nr_accesses, r.age);
  }
}

/// Appends each record as one "key field..." line.
struct Writer {
  std::string out;

  template <typename... F>
  void operator()(std::string_view key, const F&... fields) {
    out += key;
    (Put(fields), ...);
    out += '\n';
  }
  void Check(bool, std::string_view) {}

  template <std::integral T>
  void Put(T v) {
    if constexpr (std::is_same_v<T, bool>)
      out += v ? " 1" : " 0";
    else if constexpr (std::is_signed_v<T>)
      AppendF(out, " %lld", static_cast<long long>(v));
    else
      AppendF(out, " %" PRIu64, static_cast<std::uint64_t>(v));
  }
  // Doubles are written as hex-floats: "%a" round-trips every finite value
  // exactly through strtod, which "%f"/"%g" do not — and quota charges or
  // frequency bounds that drift by one ulp across a restore would break the
  // bit-identical-continuation guarantee.
  void Put(double v) { AppendF(out, " %a", v); }
  void Put(FreqBound::Unit unit) {
    out += unit == FreqBound::Unit::kPercent ? " percent" : " samples";
  }
  void Put(DamosAction action) {
    out += ' ';
    out += damon::DamosActionName(action);
  }
  void Put(WatermarkMetric metric) {
    out += ' ';
    out += governor::WatermarkMetricName(metric);
  }
  template <typename Vec>
  void Put(const Count<Vec>& count) {
    AppendF(out, " %zu", count.items.size());
  }
};

/// Line-by-line cursor over the checkpoint text. The first error records
/// its line and message; every later read is a no-op, so the walk runs to
/// its end and the caller checks `failed` once.
struct Reader {
  explicit Reader(std::string_view text) : lines(text) {}

  LineCursor lines;  // errors on missing records point past the last line
  std::vector<std::string_view> tokens;  // the current line
  CheckpointError error;
  bool failed = false;

  void Fail(std::string message) {
    if (failed) return;
    failed = true;
    error.line_number = lines.line_no();
    error.message = std::move(message);
  }

  /// Splits the next non-blank line into `tokens`; false at end of input.
  bool NextLine() {
    std::string_view line;
    while (lines.Next(&line)) {
      tokens = SplitWhitespace(line);
      if (!tokens.empty()) return true;
    }
    return false;
  }

  /// Reads the next line as `key` plus exactly one token per field.
  template <typename... F>
  void operator()(std::string_view key, F&&... fields) {
    if (failed) return;
    if (!NextLine())
      return Fail("unexpected end of checkpoint (expected '" +
                  std::string(key) + "' record)");
    if (tokens[0] != key)
      return Fail("expected '" + std::string(key) + "' record, got '" +
                  std::string(tokens[0]) + "'");
    if (tokens.size() != sizeof...(F) + 1)
      return Fail("'" + std::string(key) + "' record needs " +
                  std::to_string(sizeof...(F)) + " fields, got " +
                  std::to_string(tokens.size() - 1));
    std::size_t i = 0;
    (Get(tokens[++i], fields), ...);
  }
  void Check(bool ok, std::string_view message) {
    if (!ok) Fail(std::string(message));
  }

  std::uint64_t U64(std::string_view token) {
    const auto v = ParseU64(token);
    if (!v) Fail("bad unsigned value '" + std::string(token) + "'");
    return v.value_or(0);
  }

  template <std::integral T>
  void Get(std::string_view token, T& field) {
    const std::uint64_t v = U64(token);
    if (!failed && !std::in_range<T>(v))
      Fail("value '" + std::string(token) + "' overflows " +
           std::to_string(std::numeric_limits<T>::digits) + " bits");
    field = static_cast<T>(v);
  }
  void Get(std::string_view token, bool& field) {
    field = token == "1";
    if (!field && token != "0")
      Fail("bad boolean '" + std::string(token) + "' (want 0 or 1)");
  }
  void Get(std::string_view token, double& field) {
    if (!StoreParsed(ParseFiniteDouble(token), field))
      Fail("bad floating-point value '" + std::string(token) + "'");
  }
  void Get(std::string_view token, FreqBound::Unit& unit) {
    if (token == "percent") {
      unit = FreqBound::Unit::kPercent;
    } else if (token == "samples") {
      unit = FreqBound::Unit::kSamples;
    } else {
      Fail("bad frequency unit '" + std::string(token) +
           "' (want percent|samples)");
    }
  }
  void Get(std::string_view token, DamosAction& action) {
    if (!damos::ParseAction(token, &action))
      Fail("unknown scheme action '" + std::string(token) + "'");
  }
  void Get(std::string_view token, WatermarkMetric& metric) {
    if (!governor::ParseWatermarkMetric(token, &metric))
      Fail("unknown watermark metric '" + std::string(token) + "'");
  }
  template <typename Vec>
  void Get(std::string_view token, Count<Vec>& count) {
    const std::uint64_t n = U64(token);
    if (!failed && n > count.cap)
      Fail("implausible " + std::string(count.what) + " count " +
           std::to_string(n));
    if (!failed) count.items.resize(n);
  }
};

}  // namespace

std::string SerializeCheckpoint(const Checkpoint& cp) {
  Writer w;
  w.out.reserve(4096);
  AppendF(w.out, "%.*s v%d\n", static_cast<int>(kCheckpointMagic.size()),
          kCheckpointMagic.data(), cp.version);
  Walk(w, cp);
  w.out += "end\n";
  return std::move(w.out);
}

std::optional<Checkpoint> ParseCheckpoint(std::string_view text,
                                          CheckpointError* error) {
  Reader in(text);
  Checkpoint cp;
  // Header: "daos-checkpoint v<version>". Version skew is rejected here —
  // silently reinterpreting a future format would restore garbage state.
  const std::string want = " v" + std::to_string(kCheckpointVersion);
  if (!in.NextLine()) {
    in.Fail("empty checkpoint (expected '" + std::string(kCheckpointMagic) +
            want + "' header)");
  } else if (in.tokens[0] != kCheckpointMagic || in.tokens.size() != 2 ||
             in.tokens[1].size() < 2 || in.tokens[1][0] != 'v') {
    in.Fail("not a checkpoint: expected '" + std::string(kCheckpointMagic) +
            want + "' header");
  } else if (const std::uint64_t version = in.U64(in.tokens[1].substr(1));
             !in.failed && version != kCheckpointVersion) {
    in.Fail("unsupported checkpoint version v" + std::to_string(version) +
            " (this build reads v" + std::to_string(kCheckpointVersion) +
            ")");
  }
  Walk(in, cp);
  in("end");
  if (!in.failed && in.NextLine())
    in.Fail("trailing data after 'end' record");
  if (!in.failed) return cp;
  if (error != nullptr) *error = in.error;
  return std::nullopt;
}

Checkpoint CaptureCheckpoint(const damon::DamonContext& ctx,
                             const damos::SchemesEngine& engine,
                             const damon::Recorder* recorder, SimTimeUs now) {
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
  cp.schemes = engine.schemes();
  if (recorder != nullptr) {
    cp.recorder_every = recorder->every();
    cp.recorder_next = recorder->next();
    cp.recorder_tail = recorder->snapshots();
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

  engine.Install(cp.schemes);
  engine.SetDisarmed(cp.engine_disarmed);

  if (recorder != nullptr)
    recorder->RestoreTail(cp.recorder_tail, cp.recorder_next);
  return true;
}

}  // namespace daos::lifecycle
