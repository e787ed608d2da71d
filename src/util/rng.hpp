// Deterministic pseudo-random number generation for the simulator.
//
// Everything in DAOS that needs randomness (region-split points, sample-page
// selection, workload access draws, tuner sampling plans) pulls from an
// explicitly seeded Xoshiro256** instance so runs are bit-reproducible.
// std::mt19937 is avoided because its stream is not guaranteed identical
// across standard-library implementations for distributions; we implement
// the few draws we need directly.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace daos {

/// SplitMix64: used to expand a single seed into Xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t Next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: fast, high-quality, tiny-state generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed'da05'5eed'da05ULL) noexcept {
    Reseed(seed);
  }

  void Reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  std::uint64_t NextU64() noexcept {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound == 0 returns 0. Uses Lemire reduction.
  std::uint64_t NextBounded(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // 128-bit multiply keeps the distribution unbiased enough for
    // simulation purposes (bias < 2^-64 per draw).
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(NextU64()) * bound) >> 64);
  }

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t NextInRange(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + NextBounded(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() noexcept {
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli draw with probability p of returning true.
  bool NextBool(double p) noexcept { return NextDouble() < p; }

  /// Raw generator state, for checkpoint/restore: a restored generator
  /// continues the exact stream the captured one would have produced.
  std::array<std::uint64_t, 4> State() const noexcept { return state_; }
  void SetState(const std::array<std::uint64_t, 4>& state) noexcept {
    state_ = state;
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Approximately Zipf-distributed ranks in [0, n) with exponent s, by
/// inverse CDF on the continuous approximation: accurate enough for
/// workload shaping. A draw's rank depends only on the 53-bit integer
/// m = NextU64() >> 11 that NextDouble scales to u = m * 2^-53, so the
/// sampler is a map from m to a rank. The formula, with every term that
/// depends only on (n, s) computed once, is the reference for that map.
///
/// Where the formula's rank is provably non-decreasing in m (DESIGN §15.1
/// *Hot-loop rules*), the constructor tabulates the head of the
/// distribution: for each rank k whose m-interval is at least one guide
/// bucket wide, the smallest m of rank >= k, found by evaluating the
/// formula itself, and a u16 guide with the rank at each bucket's first m.
/// A draw below the head's end then costs a guide lookup and one compare;
/// every other draw evaluates the formula (one pow, or one exp when
/// s == 1). Both give the formula's own rank.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);

  /// One rank. n <= 1 returns 0 without consuming a draw. Inline, so a
  /// caller's loop can keep its generator in registers.
  std::uint64_t Draw(Rng& rng) const noexcept {
    if (n_ <= 1) return 0;
    return RankOf(rng.NextU64() >> 11);
  }

  /// The rank Draw returns for the 53-bit integer m (m < 2^53; n >= 2).
  std::uint64_t RankOf(std::uint64_t m) const noexcept {
    if (m < head_end_) {
      const std::uint64_t r = guide_[m >> bucket_shift_];
      return m >= starts_[r + 1] ? r + 1 : r;
    }
    return FormulaRank(m);
  }

  /// The head's rank starts, smallest m of each rank 0..K-1, then the
  /// head's end; empty when there is no table. Only tests read it: they
  /// probe RankOf on both sides of every start against the formula.
  const std::vector<std::uint64_t>& HeadStarts() const noexcept {
    return starts_;
  }

 private:
  std::uint64_t FormulaRank(std::uint64_t m) const noexcept {
    const double u = static_cast<double>(m) * (1.0 / 9007199254740992.0);
    if (log_cdf_) {
      // CDF(x) ~ ln(1+x)/ln(1+n); invert.
      const double x = std::exp(u * log1p_n_) - 1.0;
      const auto r = static_cast<std::uint64_t>(x);
      return r >= n_ ? n_ - 1 : r;
    }
    // CDF(x) ~ ((1+x)^(1-s) - 1) / ((1+n)^(1-s) - 1) for s != 1.
    const double x = std::pow(u * top_ + 1.0, inv_oms_) - 1.0;
    if (x <= 0.0) return 0;
    const auto r = static_cast<std::uint64_t>(x);
    return r >= n_ ? n_ - 1 : r;
  }
  std::uint64_t FirstOfRank(std::uint64_t k, std::uint64_t below,
                            double oms) const noexcept;
  void BuildHead(double oms);

  std::uint64_t n_;
  bool log_cdf_;          // s == 1: CDF(x) ~ ln(1+x) / ln(1+n)
  double log1p_n_ = 0.0;  // ln(1+n), s == 1 only
  double top_ = 0.0;      // (n+1)^(1-s) - 1, s != 1 only
  double inv_oms_ = 0.0;  // 1 / (1-s), s != 1 only
  // The head table: m < head_end_ takes guide_[m >> bucket_shift_], the
  // rank of the bucket's first m, and starts_ (K + 1 entries, the last
  // head_end_) decides whether m is in that rank or the next.
  std::uint64_t head_end_ = 0;
  unsigned bucket_shift_ = 0;
  std::vector<std::uint64_t> starts_;
  std::vector<std::uint16_t> guide_;
};

}  // namespace daos
