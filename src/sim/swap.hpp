// Swap devices: the "new memory layers" of paper §2.1.
//
// DAOS's proactive reclamation trades DRAM residency against the latency of
// bringing a page back from a slower layer. We model the three backends the
// paper evaluates: zram (compressed, in-DRAM block device — fast but its
// compressed pages still occupy system memory), a file/SSD swap (slower,
// bigger, no DRAM cost), and an NVM-like device with asymmetric read/write
// latency (the paper's "Limitations" section — used by our extension bench).
#pragma once

#include <cstdint>
#include <string>

#include "util/types.hpp"

namespace daos::sim {

enum class SwapKind : std::uint8_t { kNone, kZram, kFile, kNvm };

struct SwapConfig {
  SwapKind kind = SwapKind::kNone;
  std::uint64_t capacity_bytes = 0;
  SimTimeUs page_in_us = 0;     // major-fault latency per 4 KiB page
  SimTimeUs page_out_us = 0;    // write-back latency per 4 KiB page
  bool occupies_dram = false;   // zram: compressed pages still live in DRAM

  /// 4 GiB zram device as used by the paper's baseline configuration.
  static SwapConfig Zram(std::uint64_t capacity = 4 * GiB);
  /// SSD-file-backed swap.
  static SwapConfig File(std::uint64_t capacity = 64 * GiB);
  /// NVM-like device: reads ~DRAM-order, writes several times slower.
  static SwapConfig Nvm(std::uint64_t capacity = 64 * GiB);
  static SwapConfig None();
};

/// Book-keeping for one swap device. Stores no data, only accounting: slot
/// count and (for zram) the compressed byte footprint, which the Machine
/// counts against DRAM.
class SwapDevice {
 public:
  explicit SwapDevice(const SwapConfig& config) : config_(config) {}

  const SwapConfig& config() const noexcept { return config_; }
  bool Enabled() const noexcept { return config_.kind != SwapKind::kNone; }

  /// Stores one page compressed at `compress_ratio` (original/compressed,
  /// >= 1). Returns false when the device is full.
  bool StorePage(double compress_ratio);

  /// Releases one page previously stored with the same ratio.
  void ReleasePage(double compress_ratio);

  std::uint64_t used_slots() const noexcept { return used_slots_; }
  std::uint64_t stored_bytes() const noexcept {
    return static_cast<std::uint64_t>(stored_bytes_);
  }
  /// DRAM consumed by this device (zram only).
  std::uint64_t dram_bytes() const noexcept {
    return config_.occupies_dram ? stored_bytes() : 0;
  }

  std::uint64_t total_ins() const noexcept { return total_ins_; }
  std::uint64_t total_outs() const noexcept { return total_outs_; }
  void CountPageIn() noexcept { ++total_ins_; }

 private:
  SwapConfig config_;
  std::uint64_t used_slots_ = 0;
  double stored_bytes_ = 0.0;
  std::uint64_t total_ins_ = 0;
  std::uint64_t total_outs_ = 0;
};

}  // namespace daos::sim
