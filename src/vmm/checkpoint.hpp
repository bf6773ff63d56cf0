// Checkpoint/restore of a domain's memory image (paper §6.1).
//
// The VMM is attached (or already active), snapshots every frame the domain
// owns plus its vcpu state, and detaches again. Restore copies the image
// back. Divergence from the paper noted in DESIGN.md: host-side C++ kernel
// bookkeeping (task structs) is not rolled back — the verifiable contract is
// bit-exact restoration of the domain's *memory* (page tables included) and
// the timing of both operations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "vmm/hypervisor.hpp"

namespace mercury::vmm {

/// A domain image stored sparsely: only frames whose backing was resident
/// at capture keep their bytes; every other frame read as zero then.
struct Snapshot {
  static constexpr std::uint32_t kZeroSlot = ~std::uint32_t{0};

  DomainId dom = kDomInvalid;
  hw::Pfn first_frame = 0;
  std::size_t frame_count = 0;
  hw::Cycles taken_at = 0;
  // Per frame: the page index of its bytes in `image`, or kZeroSlot.
  std::vector<std::uint32_t> slots;
  std::vector<std::uint8_t> image;  // the stored frames, 4K bytes each
  std::vector<VcpuContext> vcpus;

  /// Size of the simulated image (every frame, stored or zero).
  std::size_t bytes() const { return frame_count * hw::kPageSize; }
  /// Frames that carry bytes on the host.
  std::size_t stored_frames() const { return image.size() / hw::kPageSize; }
};

class Checkpointer {
 public:
  /// Snapshot the domain's memory + vcpu state. Charges copy costs to `cpu`.
  static Snapshot take(hw::Cpu& cpu, Hypervisor& hv, DomainId dom);

  /// Restore a snapshot into the same domain (memory must still be at the
  /// same machine frames). Charges copy costs.
  static void restore(hw::Cpu& cpu, Hypervisor& hv, const Snapshot& snap);

  /// Bit-exact comparison of the current memory against a snapshot.
  static bool matches(Hypervisor& hv, const Snapshot& snap);
};

}  // namespace mercury::vmm
