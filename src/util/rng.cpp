#include "util/rng.hpp"

#include <cmath>

namespace daos {

ZipfSampler::ZipfSampler(std::uint64_t n, double s) noexcept
    : n_(n), log_cdf_(s == 1.0) {
  if (log_cdf_) {
    log1p_n_ = std::log1p(static_cast<double>(n));
  } else {
    const double oms = 1.0 - s;
    top_ = std::pow(static_cast<double>(n) + 1.0, oms) - 1.0;
    inv_oms_ = 1.0 / oms;
  }
}

std::uint64_t ZipfSampler::Draw(Rng& rng) const noexcept {
  if (n_ <= 1) return 0;
  const double u = rng.NextDouble();
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

}  // namespace daos
