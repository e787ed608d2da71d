#include "sim/thp.hpp"

#include "sim/address_space.hpp"
#include "sim/machine.hpp"

namespace daos::sim {

std::uint64_t RunKhugepagedScan(Machine& machine, std::uint64_t block_budget,
                                SimTimeUs now) {
  std::uint64_t collapses = 0;
  for (AddressSpace* space : machine.spaces()) {
    for (Vma& vma : space->vmas()) {
      for (std::size_t b = 0; b < vma.block_count(); ++b) {
        if (collapses >= block_budget) return collapses;
        if (vma.BlockIsHuge(b) || vma.BlockResident(b) == 0 ||
            !vma.BlockIsFull(b))
          continue;
        if (space->PromoteBlock(vma, b, now) > 0 || vma.BlockIsHuge(b))
          ++collapses;
      }
    }
  }
  return collapses;
}

}  // namespace daos::sim
