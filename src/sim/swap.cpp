#include "sim/swap.hpp"

#include <algorithm>

namespace daos::sim {

SwapConfig SwapConfig::Zram(std::uint64_t capacity) {
  // Compressed-RAM swap. The whole major-fault path costs well more than
  // the decompression alone: fault entry, swap-cache lookup, page
  // allocation, decompression, and TLB maintenance.
  return SwapConfig{SwapKind::kZram, capacity, /*page_in_us=*/25,
                    /*page_out_us=*/15, /*occupies_dram=*/true};
}

SwapConfig SwapConfig::File(std::uint64_t capacity) {
  // NVMe SSD-order latencies.
  return SwapConfig{SwapKind::kFile, capacity, /*page_in_us=*/90,
                    /*page_out_us=*/35, /*occupies_dram=*/false};
}

SwapConfig SwapConfig::Nvm(std::uint64_t capacity) {
  // Optane-like: fast reads, much slower writes (paper's asymmetry note).
  return SwapConfig{SwapKind::kNvm, capacity, /*page_in_us=*/2,
                    /*page_out_us=*/10, /*occupies_dram=*/false};
}

SwapConfig SwapConfig::None() { return SwapConfig{}; }

bool SwapDevice::StorePage(double compress_ratio) {
  if (!Enabled()) return false;
  const double ratio = std::max(1.0, compress_ratio);
  const double bytes = static_cast<double>(kPageSize) / ratio;
  if (stored_bytes_ + bytes > static_cast<double>(config_.capacity_bytes))
    return false;
  stored_bytes_ += bytes;
  ++used_slots_;
  ++total_outs_;
  return true;
}

void SwapDevice::ReleasePage(double compress_ratio) {
  const double ratio = std::max(1.0, compress_ratio);
  const double bytes = static_cast<double>(kPageSize) / ratio;
  stored_bytes_ = std::max(0.0, stored_bytes_ - bytes);
  if (used_slots_ > 0) --used_slots_;
}

}  // namespace daos::sim
