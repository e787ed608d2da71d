// FNV-1a, the one stable hash the program quotes: fault points seed their
// RNG streams from it, chaos repro signatures digest the final cross-layer
// state with it, and the golden monitor digests are pinned in it. Unlike
// std::hash its values are identical on every platform and standard
// library, so they can be written into replay files and tests.
#pragma once

#include <cstdint>
#include <string_view>

namespace daos {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;

  constexpr Fnv1a() noexcept = default;
  /// Starts from another basis; only for digests already pinned with one.
  explicit constexpr Fnv1a(std::uint64_t basis) noexcept : h_(basis) {}

  /// Mixes the eight bytes of `v`, least significant first.
  constexpr void Mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i)
      MixByte(static_cast<unsigned char>(v >> (i * 8)));
  }
  constexpr void Mix(std::string_view s) noexcept {
    for (const char c : s) MixByte(static_cast<unsigned char>(c));
  }
  constexpr std::uint64_t value() const noexcept { return h_; }

 private:
  constexpr void MixByte(unsigned char b) noexcept {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }

  std::uint64_t h_ = kOffsetBasis;
};

}  // namespace daos
