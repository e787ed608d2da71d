#include "util/rng.hpp"

#include <algorithm>
#include <bit>

namespace daos {
namespace {

constexpr std::uint64_t kEnd = std::uint64_t{1} << 53;  // m < 2^53
// Caps that keep each table below glibc's 128 KiB mmap threshold.
constexpr std::uint64_t kMaxHeadRanks = 8192;  // starts_: 64 KiB
constexpr unsigned kGuideBits = 15;            // guide_: 2^15 u16, 64 KiB
// The table needs the formula's rank to be non-decreasing in m. With
// |1/(1-s)| >= 4, distinct pow inputs move the exact output by more than
// two ULPs, more than the 1.56 ULPs two 0.52-ULP results can cross
// (DESIGN §15.1 *Hot-loop rules*).
constexpr double kMinTableExponent = 4.0;

}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), log_cdf_(s == 1.0) {
  if (log_cdf_) {
    // No table: one exp costs less than a table draw.
    log1p_n_ = std::log1p(static_cast<double>(n));
    return;
  }
  const double oms = 1.0 - s;
  top_ = std::pow(static_cast<double>(n) + 1.0, oms) - 1.0;
  inv_oms_ = 1.0 / oms;
  if (n_ >= 2 && n_ <= kEnd / 2 && std::fabs(inv_oms_) >= kMinTableExponent) {
    BuildHead(oms);
  }
}

void ZipfSampler::BuildHead(double oms) {
  // Buckets are twice the largest power of two <= 2^53 / n wide, so the
  // whole m range holds fewer than n of them.
  const unsigned shift = 54 - static_cast<unsigned>(std::bit_width(n_ - 1));
  const std::uint64_t width = std::uint64_t{1} << shift;
  const std::uint64_t guide_end =
      53 - shift <= kGuideBits ? kEnd : std::uint64_t{1} << (kGuideBits + shift);
  // Head rank k joins while its m-interval [starts[k], starts[k+1]) is at
  // least one bucket wide, so no bucket holds two head starts.
  std::vector<std::uint64_t> starts;
  starts.reserve(std::min(n_, kMaxHeadRanks) + 1);
  starts.push_back(0);  // m = 0 is u = 0: rank 0
  // Rank n-1 never joins: n buckets span more than 2^53.
  while (starts.size() <= kMaxHeadRanks && starts.size() < n_ &&
         starts.back() < kEnd) {
    const std::uint64_t next = FirstOfRank(starts.size(), starts.back(), oms);
    if (next - starts.back() < width || next > guide_end) break;
    starts.push_back(next);
  }
  if (starts.size() < 2) return;  // not even rank 0 fills a bucket

  head_end_ = starts.back();
  bucket_shift_ = shift;
  guide_.resize(((head_end_ - 1) >> shift) + 1);
  std::uint64_t r = 0;
  for (std::size_t b = 0; b < guide_.size(); ++b) {
    while (starts[r + 1] <= (std::uint64_t{b} << shift)) ++r;
    guide_[b] = static_cast<std::uint16_t>(r);
  }
  starts_ = std::move(starts);
}

std::uint64_t ZipfSampler::FirstOfRank(std::uint64_t k, std::uint64_t below,
                                       double oms) const noexcept {
  // Invariant: FormulaRank(lo) < k, and hi == kEnd or FormulaRank(hi) >= k.
  // The analytic inverse u = ((1+k)^(1-s) - 1) / top only picks the first
  // probe; every decision is the formula's own rank.
  if (below + 1 >= kEnd) return kEnd;
  std::uint64_t lo = below;
  std::uint64_t hi = kEnd;
  const double guess =
      (std::pow(static_cast<double>(k) + 1.0, oms) - 1.0) / top_ * 0x1p53;
  std::uint64_t at = below + 1;
  if (guess > static_cast<double>(at)) {
    at = guess < 0x1p53 ? static_cast<std::uint64_t>(guess) : kEnd - 1;
  }
  // Gallop away from the probe in doubling steps until k is bracketed.
  if (FormulaRank(at) >= k) {
    hi = at;
    for (std::uint64_t step = 1; hi - lo > step; step *= 2) {
      if (FormulaRank(hi - step) < k) {
        lo = hi - step;
        break;
      }
      hi -= step;
    }
  } else {
    lo = at;
    for (std::uint64_t step = 1; kEnd - lo > step; step *= 2) {
      if (FormulaRank(lo + step) >= k) {
        hi = lo + step;
        break;
      }
      lo += step;
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (FormulaRank(mid) >= k ? hi : lo) = mid;
  }
  return hi;
}

}  // namespace daos
