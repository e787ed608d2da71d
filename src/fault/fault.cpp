#include "fault/fault.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>

#include "util/hash.hpp"
#include "util/strings.hpp"

namespace daos::fault {

bool ParseTrigger(std::string_view key, std::string_view value,
                  FaultSpec* spec, std::string* error) {
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (key == "p") {
    const auto p = ParseProbability(value);
    if (!p) {
      return fail("bad probability '" + std::string(value) +
                  "' (want a float in [0, 1])");
    }
    spec->probability = *p;
  } else if (key == "every") {
    const auto n = ParseU64(value);
    if (!n || *n == 0) {
      return fail("bad ordinal '" + std::string(value) +
                  "' (want an integer >= 1)");
    }
    spec->every_nth = *n;
  } else if (key == "once") {
    const auto n = ParseU64(value);
    if (!n || *n == 0) {
      return fail("bad one-shot ordinal '" + std::string(value) +
                  "' (want an integer >= 1)");
    }
    spec->once_at = *n;
  } else {
    return fail("unknown trigger '" + std::string(key) + "'");
  }
  return true;
}

void FormatSpec(std::ostream& out, const FaultSpec& spec) {
  if (!spec.armed()) {
    out << "off";
    return;
  }
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ' ';
    first = false;
  };
  if (spec.probability > 0.0) {
    sep();
    out << "p=" << ExactDouble(spec.probability);
  }
  if (spec.every_nth > 0) {
    sep();
    out << "every=" << spec.every_nth;
  }
  if (spec.once_at > 0) {
    sep();
    out << "once=" << spec.once_at;
  }
}

const std::vector<std::string_view>& WellKnownPoints() {
  static const std::vector<std::string_view> kPoints = {
      kSwapWriteError,    kSwapSlotExhausted, kAllocFrameFail,
      kThpCollapseFail,   kTierMigrateFail,   kDaemonOverrun,
      kDaemonCrash,       kTrialHang,         kFleetShardCrash,
      kFleetRollbackFail, kFleetTelemetryLoss};
  return kPoints;
}

FaultPoint::FaultPoint(std::string name, std::uint64_t plane_seed)
    : name_(std::move(name)),
      plane_seed_(plane_seed),
      rng_(StreamSeed(name_, plane_seed)) {}

std::uint64_t FaultPoint::StreamSeed(std::string_view name,
                                     std::uint64_t plane_seed) {
  // FNV-1a of the point name: replay files quote plane seeds, so each
  // point's stream must be the same on every platform.
  Fnv1a hash;
  hash.Mix(name);
  return plane_seed ^ hash.value();
}

void FaultPoint::Arm(const FaultSpec& spec) {
  spec_ = spec;
  armed_ = spec.armed();
  ResetSchedule();
}

void FaultPoint::Disarm() {
  spec_ = FaultSpec{};
  armed_ = false;
  ResetSchedule();
}

void FaultPoint::ResetSchedule() {
  hits_.store(0, std::memory_order_relaxed);
  fires_.store(0, std::memory_order_relaxed);
  rng_.Reseed(StreamSeed(name_, plane_seed_));
}

bool FaultPoint::Roll() noexcept {
  // Claim this check's ordinal atomically; `once=`/`every=` are then pure
  // functions of the ordinal, so each ordinal-triggered fault fires for
  // exactly one check even when a plane is shared across threads.
  const std::uint64_t ordinal =
      hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  cum_hits_.fetch_add(1, std::memory_order_relaxed);
  bool fire = false;
  if (spec_.once_at > 0 && ordinal == spec_.once_at) fire = true;
  if (spec_.every_nth > 0 && ordinal % spec_.every_nth == 0) fire = true;
  // The probability draw happens unconditionally while armed so the RNG
  // stream position depends only on the hit ordinal, not on what the other
  // triggers decided — combined specs stay replayable. The stream is the
  // one part of a point that is *not* thread-safe: p= requires the plane
  // to stay thread-confined.
  if (spec_.probability > 0.0 && rng_.NextBool(spec_.probability)) fire = true;
  if (fire) {
    fires_.fetch_add(1, std::memory_order_relaxed);
    cum_fires_.fetch_add(1, std::memory_order_relaxed);
    if (fires_counter_ != nullptr) fires_counter_->Add();
  }
  return fire;
}

FaultPlane::FaultPlane(std::uint64_t seed) : seed_(seed) {}

FaultPoint& FaultPlane::Point(std::string_view name) {
  auto it = points_.find(name);
  if (it == points_.end()) {
    auto point = std::unique_ptr<FaultPoint>(
        new FaultPoint(std::string(name), seed_));
    it = points_.emplace(point->name(), std::move(point)).first;
    if (registry_ != nullptr) BindPoint(*it->second);
  }
  return *it->second;
}

FaultPoint* FaultPlane::Find(std::string_view name) {
  const auto it = points_.find(name);
  return it == points_.end() ? nullptr : it->second.get();
}

const FaultPoint* FaultPlane::Find(std::string_view name) const {
  const auto it = points_.find(name);
  return it == points_.end() ? nullptr : it->second.get();
}

void FaultPlane::DisarmAll() {
  for (auto& [name, point] : points_) point->Disarm();
}

void FaultPlane::Reseed(std::uint64_t seed) {
  seed_ = seed;
  for (auto& [name, point] : points_) {
    point->plane_seed_ = seed;
    point->ResetSchedule();
  }
}

bool FaultPlane::Configure(std::string_view text, std::string* error) {
  struct Directive {
    enum class Kind { kArm, kDisarm, kSeed, kReset } kind;
    std::string point;
    FaultSpec spec;
    std::uint64_t seed = 0;
  };
  std::vector<Directive> directives;

  // Parse everything before touching any state: a write with an error on
  // line 3 must not half-apply lines 1-2 (same atomicity contract as
  // dbgfs WriteSchemes).
  LineCursor lines(text, "\n;");
  std::string_view raw;
  while (lines.Next(&raw)) {
    const std::string_view line = TrimWhitespace(StripComment(raw));
    if (line.empty()) continue;
    const auto fail = [&](const std::string& msg) {
      if (error != nullptr) *error = LineError(lines.line_no(), msg);
      return false;
    };

    const std::vector<std::string_view> tokens = SplitWhitespace(line);
    if (tokens[0] == "reset") {
      if (tokens.size() != 1) return fail("'reset' takes no arguments");
      directives.push_back({Directive::Kind::kReset, {}, {}, 0});
      continue;
    }
    if (tokens[0] == "seed") {
      const auto seed =
          tokens.size() == 2 ? ParseU64(tokens[1]) : std::nullopt;
      if (!seed) return fail("expected 'seed <u64>'");
      directives.push_back({Directive::Kind::kSeed, {}, {}, *seed});
      continue;
    }
    if (tokens.size() < 2) {
      return fail("expected '<point> <trigger>...' or '<point> off'");
    }
    if (tokens.size() == 2 && tokens[1] == "off") {
      directives.push_back(
          {Directive::Kind::kDisarm, std::string(tokens[0]), {}, 0});
      continue;
    }
    FaultSpec spec;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::string_view tok = tokens[i];
      const std::size_t eq = tok.find('=');
      if (eq == std::string_view::npos) {
        return fail("bad trigger '" + std::string(tok) +
                    "' (want p=<prob>, every=<N>, or once=<N>)");
      }
      std::string msg;
      if (!ParseTrigger(tok.substr(0, eq), tok.substr(eq + 1), &spec, &msg))
        return fail(msg);
    }
    directives.push_back(
        {Directive::Kind::kArm, std::string(tokens[0]), spec, 0});
  }

  for (const Directive& d : directives) {
    switch (d.kind) {
      case Directive::Kind::kArm:
        Arm(d.point, d.spec);
        break;
      case Directive::Kind::kDisarm:
        Point(d.point).Disarm();
        break;
      case Directive::Kind::kSeed:
        Reseed(d.seed);
        break;
      case Directive::Kind::kReset:
        DisarmAll();
        break;
    }
  }
  return true;
}

std::string FaultPlane::StatusText() const {
  std::ostringstream out;
  out << "seed " << seed_ << '\n';
  for (const auto& [name, point] : points_) {
    out << name << ' ';
    FormatSpec(out, point->spec());
    out << " hits=" << point->hits() << " fires=" << point->fires()
        << " fired=" << point->cumulative_fires()
        << " suppressed=" << point->cumulative_suppressed() << '\n';
  }
  return out.str();
}

void FaultPlane::BindTelemetry(telemetry::MetricsRegistry& registry,
                               std::string_view prefix) {
  registry_ = &registry;
  prefix_ = std::string(prefix);
  for (auto& [name, point] : points_) BindPoint(*point);
}

void FaultPlane::BindPoint(FaultPoint& point) {
  point.fires_counter_ =
      &registry_->GetCounter(prefix_ + "." + point.name_ + ".fires");
}

std::vector<std::string> FaultPlane::Names() const {
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, point] : points_) names.push_back(name);
  return names;
}

std::unique_ptr<FaultPlane> FaultPlane::FromEnv() {
  // Serialized: every System construction lands here, and concurrent
  // experiment runs (ParallelRunner) construct Systems from many threads.
  // getenv itself is only thread-safe against other getenv calls; the lock
  // also keeps the stderr diagnostics whole.
  static std::mutex env_mu;
  const std::lock_guard<std::mutex> lock(env_mu);
  const char* spec = std::getenv("DAOS_FAULTS");
  if (spec == nullptr || *spec == '\0') return nullptr;
  std::uint64_t seed = 0xfa'017'fa'017ULL;
  if (const char* seed_env = std::getenv("DAOS_FAULT_SEED")) {
    const auto parsed = ParseU64(seed_env);
    if (parsed) {
      seed = *parsed;
    } else if (*seed_env != '\0') {
      // A wrong seed is a *different* fault schedule, not a degraded one:
      // silently defaulting would run chaos repros against the wrong
      // schedule and "reproduce" nothing. Reject the whole plane instead.
      std::fprintf(stderr,
                   "daos: rejecting DAOS_FAULTS: bad DAOS_FAULT_SEED '%s' "
                   "(want a decimal u64)\n",
                   seed_env);
      return nullptr;
    }
  }
  auto plane = std::make_unique<FaultPlane>(seed);
  std::string error;
  if (!plane->Configure(spec, &error)) {
    std::fprintf(stderr, "daos: ignoring bad DAOS_FAULTS: %s\n",
                 error.c_str());
    return nullptr;
  }
  return plane;
}

}  // namespace daos::fault
