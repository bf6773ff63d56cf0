// Pre-copy live migration of a domain between two machines (Clark et al.
// style, as used by the paper's online-maintenance and HPC-availability
// scenarios §6.3/§6.5).
//
// Rounds of dirty-page transfer run while the guest keeps executing; the
// final stop-and-copy freezes the guest, ships the residue and the vcpu
// state, and re-homes the kernel on the target via Kernel::migrate_to. The
// downtime the stats report runs from the stop-and-copy start on the
// sender's clock to the end of the receiver's admission on its CPU 0.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hw/devices/nic.hpp"
#include "vmm/hypervisor.hpp"

namespace mercury::vmm {

struct MigrationConfig {
  std::size_t max_rounds = 5;
  std::size_t stop_threshold_pages = 64;  // residue small enough to stop
  /// Optional per-round source of *content*-dirty frames: stores that land
  /// through the direct map and never set a PTE dirty bit (DMA completions,
  /// kernel-space writes). The cluster layer wires a DirtyFrameTracker's
  /// collect_content() here — the vmm cannot name core's tracker directly.
  /// Called once per pre-copy round; append PFNs to the vector.
  std::function<void(std::vector<hw::Pfn>&)> harvest_content_dirty;
};

struct MigrationStats {
  bool success = false;
  DomainId new_domain = kDomInvalid;  // the domain id on the target
  std::size_t rounds = 0;
  std::size_t pages_sent = 0;
  std::size_t pages_total = 0;
  hw::Cycles total_cycles = 0;
  hw::Cycles downtime_cycles = 0;
};

class LiveMigration {
 public:
  /// Migrate `dom` (whose guest kernel keeps running between rounds via its
  /// own stepper) from `src` to `dst`. On success the guest kernel object is
  /// re-homed on dst's machine as a new (unprivileged) domain of `dst`, and
  /// the domain record is removed from `src`.
  static MigrationStats run(Hypervisor& src, DomainId dom, Hypervisor& dst,
                            const MigrationConfig& config = {});
};

}  // namespace mercury::vmm
