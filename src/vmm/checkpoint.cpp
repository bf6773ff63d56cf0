#include "vmm/checkpoint.hpp"

#include <cstring>

#include "hw/costs.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mercury::vmm {

Snapshot Checkpointer::take(hw::Cpu& cpu, Hypervisor& hv, DomainId dom) {
  Domain& d = hv.domain(dom);
  Snapshot snap;
  snap.dom = dom;
  snap.first_frame = d.first_frame();
  snap.frame_count = d.frame_count();
  snap.taken_at = cpu.now();
  snap.slots.assign(d.frame_count(), Snapshot::kZeroSlot);
  const hw::PhysicalMemory& mem = hv.machine().memory();
  [[maybe_unused]] const hw::Cycles t0 = cpu.now();
  MERC_FLIGHT(cpu, kPhaseBegin, "checkpoint.capture",
              static_cast<std::uint64_t>(d.frame_count()));
  for (std::size_t i = 0; i < d.frame_count(); ++i) {
    // A fault here throws away the partial snapshot (it is caller-local);
    // the domain's memory was only read, so retry is trivially safe.
    hv.probe_fault(HvFaultPoint::kCheckpointCapture, &cpu);
    cpu.charge(hw::costs::kPageCopy);
    const auto page =
        mem.frame_view(d.first_frame() + static_cast<hw::Pfn>(i));
    if (page.empty()) continue;  // never materialized: stays a zero slot
    snap.slots[i] = static_cast<std::uint32_t>(snap.stored_frames());
    snap.image.insert(snap.image.end(), page.begin(), page.end());
  }
  for (std::size_t v = 0; v < d.num_vcpus(); ++v) snap.vcpus.push_back(d.vcpu(v));
  MERC_PAUSE(kCheckpointCopy, cpu.id(), t0, cpu.now(), "checkpoint-capture");
  MERC_FLIGHT(cpu, kPhaseEnd, "checkpoint.capture",
              static_cast<std::uint64_t>(d.frame_count()), cpu.now() - t0);
  return snap;
}

void Checkpointer::restore(hw::Cpu& cpu, Hypervisor& hv, const Snapshot& snap) {
  Domain& d = hv.domain(snap.dom);
  MERC_CHECK_MSG(d.first_frame() == snap.first_frame &&
                     d.frame_count() == snap.frame_count,
                 "snapshot does not match the domain's memory layout");
  hw::PhysicalMemory& mem = hv.machine().memory();
  [[maybe_unused]] const hw::Cycles t0 = cpu.now();
  MERC_FLIGHT(cpu, kPhaseBegin, "restore.apply",
              static_cast<std::uint64_t>(snap.frame_count));
  for (std::size_t i = 0; i < snap.frame_count; ++i) {
    // A fault here leaves the domain half-restored. Restore is a full-image
    // rewrite, hence idempotent: the supervising arc retries (re-running
    // this loop from frame 0) or rolls back to an undo snapshot — it never
    // leaves the machine in this state.
    hv.probe_fault(HvFaultPoint::kRestoreApply, &cpu);
    cpu.charge(hw::costs::kPageCopy);
    const hw::Pfn pfn = snap.first_frame + static_cast<hw::Pfn>(i);
    if (snap.slots[i] == Snapshot::kZeroSlot)
      mem.zero_frame(pfn);
    else
      mem.write_bytes(hw::addr_of(pfn),
                      std::span<const std::uint8_t>(
                          snap.image.data() + snap.slots[i] * hw::kPageSize,
                          hw::kPageSize));
  }
  for (std::size_t v = 0; v < snap.vcpus.size() && v < d.num_vcpus(); ++v)
    d.vcpu(v) = snap.vcpus[v];
  // Every cached translation may now be stale.
  for (std::size_t c = 0; c < hv.machine().num_cpus(); ++c) {
    hv.machine().cpu(c).tlb().flush_global();
    cpu.charge(hw::costs::kTlbFlushAll);
  }
  MERC_PAUSE(kCheckpointCopy, cpu.id(), t0, cpu.now(), "restore-apply");
  MERC_FLIGHT(cpu, kPhaseEnd, "restore.apply",
              static_cast<std::uint64_t>(snap.frame_count), cpu.now() - t0);
}

bool Checkpointer::matches(Hypervisor& hv, const Snapshot& snap) {
  // Both sides may be sparse; an absent page compares as cleared RAM.
  static const std::vector<std::uint8_t> kZeroPage(hw::kPageSize, 0);
  const hw::PhysicalMemory& mem = hv.machine().memory();
  for (std::size_t i = 0; i < snap.frame_count; ++i) {
    const auto live =
        mem.frame_view(snap.first_frame + static_cast<hw::Pfn>(i));
    const std::uint8_t* want =
        snap.slots[i] == Snapshot::kZeroSlot
            ? kZeroPage.data()
            : snap.image.data() + snap.slots[i] * hw::kPageSize;
    if (std::memcmp(live.empty() ? kZeroPage.data() : live.data(), want,
                    hw::kPageSize) != 0)
      return false;
  }
  return true;
}

}  // namespace mercury::vmm
