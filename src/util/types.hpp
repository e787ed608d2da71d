// Core scalar types shared by every DAOS module.
//
// All simulated time is kept in microseconds as a strong-ish typedef so the
// unit is visible at every call site; all addresses are byte addresses in a
// simulated (virtual or physical) address space.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace daos {

/// Byte address within a simulated address space.
using Addr = std::uint64_t;

/// Index of a 4 KiB page (addr >> kPageShift).
using PageIdx = std::uint64_t;

/// Simulated time in microseconds since simulation start.
using SimTimeUs = std::uint64_t;

inline constexpr std::uint64_t kPageShift = 12;
inline constexpr std::uint64_t kPageSize = std::uint64_t{1} << kPageShift;
inline constexpr std::uint64_t kHugePageShift = 21;
inline constexpr std::uint64_t kHugePageSize = std::uint64_t{1}
                                               << kHugePageShift;
/// Number of base pages per 2 MiB huge page.
inline constexpr std::uint64_t kPagesPerHuge = kHugePageSize / kPageSize;

inline constexpr std::uint64_t KiB = std::uint64_t{1} << 10;
inline constexpr std::uint64_t MiB = std::uint64_t{1} << 20;
inline constexpr std::uint64_t GiB = std::uint64_t{1} << 30;

inline constexpr SimTimeUs kUsPerMs = 1000;
inline constexpr SimTimeUs kUsPerSec = 1000 * 1000;
inline constexpr SimTimeUs kUsPerMin = 60 * kUsPerSec;

/// Sentinel used for "no upper bound" in scheme conditions.
inline constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

constexpr PageIdx PageOf(Addr a) noexcept { return a >> kPageShift; }
constexpr Addr AddrOfPage(PageIdx p) noexcept { return p << kPageShift; }
constexpr Addr AlignDown(Addr a, std::uint64_t align) noexcept {
  return a - (a % align);
}
constexpr Addr AlignUp(Addr a, std::uint64_t align) noexcept {
  return AlignDown(a + align - 1, align);
}

/// A fixed divisor d >= 1 that divides by one multiply: x / d is the high
/// half of x * c with c = ceil(2^64 / d), which 64-bit operations compute
/// as (2^64 - 1) / d + 1. Exact for every x < 2^32 while d < 2^32: the
/// product overshoots x / d by x * (c - 2^64 / d) / 2^64 < 2^-32 < 1 / d,
/// too little to reach the next integer. d == 1 has no 64-bit c and
/// returns x.
class Divisor {
 public:
  explicit constexpr Divisor(std::uint64_t d = 1) noexcept
      : d_(d), c_(d == 1 ? 0 : kMaxU64 / d + 1) {}

  constexpr std::uint64_t value() const noexcept { return d_; }
  std::uint64_t Quotient(std::uint64_t x) const noexcept {
    if (c_ == 0) return x;
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * c_) >> 64);
  }

 private:
  std::uint64_t d_;
  std::uint64_t c_;  // ceil(2^64 / d); 0 when d == 1
};

}  // namespace daos
