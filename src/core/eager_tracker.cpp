#include "core/eager_tracker.hpp"

#include "kernel/kernel.hpp"

namespace mercury::core {

using vmm::PageInfo;
using vmm::PageType;

void EagerTrackingVo::prime(hw::Cpu& cpu, kernel::Kernel& k) {
  vmm::CpuRunner on_cpu(cpu);
  hv_.rebuild(cpu, on_cpu, dom_, k, vmm::Hypervisor::RebuildPlan{});
  // Type the page tables without write-protecting them (the VMM is dormant;
  // protection is applied only when it activates).
  for (const auto& [pfn, type] : hv_.collect_tables(k)) {
    PageInfo& pi = hv_.page_info().at(pfn);
    pi.type = type;
    pi.pinned = true;
    pi.type_count = 1;
  }
  hv_.page_info().set_valid(true);
}

void EagerTrackingVo::pte_write(hw::Cpu& cpu, hw::PhysAddr pte_addr,
                                hw::Pte value) {
  // The tracked bookkeeping: adjust the dormant VMM's view as we go.
  cpu.charge(pv::costs::kEagerTrackPerPte);
  ++tracked_;
  (void)pte_addr;
  (void)value;
  inner_.pte_write(cpu, pte_addr, value);
}

void EagerTrackingVo::pte_write_batch(hw::Cpu& cpu,
                                      std::span<const pv::PteUpdate> updates) {
  cpu.charge(pv::costs::kEagerTrackPerPte * updates.size());
  tracked_ += updates.size();
  inner_.pte_write_batch(cpu, updates);
}

void EagerTrackingVo::pin_page_table(hw::Cpu& cpu, hw::Pfn pfn,
                                     pv::PtLevel level) {
  cpu.charge(pv::costs::kEagerTrackPerPte * 4);
  PageInfo& pi = hv_.page_info().at(pfn);
  pi.owner = dom_;
  pi.type = level == pv::PtLevel::kL1 ? PageType::kL1 : PageType::kL2;
  pi.pinned = true;
  pi.type_count += 1;
  ++tracked_;
  inner_.pin_page_table(cpu, pfn, level);
}

void EagerTrackingVo::unpin_page_table(hw::Cpu& cpu, hw::Pfn pfn) {
  cpu.charge(pv::costs::kEagerTrackPerPte * 4);
  PageInfo& pi = hv_.page_info().at(pfn);
  if (pi.type_count > 0) pi.type_count -= 1;
  if (pi.type_count == 0) {
    pi.pinned = false;
    pi.type = PageType::kWritable;
  }
  ++tracked_;
  inner_.unpin_page_table(cpu, pfn);
}

// --- pure delegation -----------------------------------------------------------

void EagerTrackingVo::write_cr3(hw::Cpu& cpu, hw::Pfn root) {
  inner_.write_cr3(cpu, root);
}
void EagerTrackingVo::load_idt(hw::Cpu& cpu, hw::TableToken t) {
  inner_.load_idt(cpu, t);
}
void EagerTrackingVo::load_gdt(hw::Cpu& cpu, hw::TableToken t) {
  inner_.load_gdt(cpu, t);
}
void EagerTrackingVo::irq_disable(hw::Cpu& cpu) { inner_.irq_disable(cpu); }
void EagerTrackingVo::irq_enable(hw::Cpu& cpu) { inner_.irq_enable(cpu); }
void EagerTrackingVo::stack_switch(hw::Cpu& cpu) { inner_.stack_switch(cpu); }
void EagerTrackingVo::syscall_entered(hw::Cpu& cpu) {
  inner_.syscall_entered(cpu);
}
void EagerTrackingVo::syscall_exiting(hw::Cpu& cpu) {
  inner_.syscall_exiting(cpu);
}
void EagerTrackingVo::flush_tlb(hw::Cpu& cpu) { inner_.flush_tlb(cpu); }
void EagerTrackingVo::flush_tlb_page(hw::Cpu& cpu, hw::VirtAddr va) {
  inner_.flush_tlb_page(cpu, va);
}
void EagerTrackingVo::send_ipi(hw::Cpu& cpu, std::uint32_t dst_cpu,
                               std::uint8_t vector, std::uint32_t payload) {
  inner_.send_ipi(cpu, dst_cpu, vector, payload);
}
void EagerTrackingVo::disk_read(hw::Cpu& cpu, std::uint64_t block,
                                std::span<std::uint8_t> out) {
  inner_.disk_read(cpu, block, out);
}
void EagerTrackingVo::disk_write(hw::Cpu& cpu, std::uint64_t block,
                                 std::span<const std::uint8_t> in) {
  inner_.disk_write(cpu, block, in);
}
void EagerTrackingVo::disk_flush(hw::Cpu& cpu) { inner_.disk_flush(cpu); }
void EagerTrackingVo::net_send(hw::Cpu& cpu, hw::Packet pkt) {
  inner_.net_send(cpu, std::move(pkt));
}
std::optional<hw::Packet> EagerTrackingVo::net_poll(hw::Cpu& cpu) {
  return inner_.net_poll(cpu);
}
void EagerTrackingVo::sensors_read(hw::Cpu& cpu, hw::SensorReadings& out) {
  inner_.sensors_read(cpu, out);
}
void EagerTrackingVo::state_transfer_in(hw::Cpu& cpu, kernel::Kernel& k) {
  inner_.state_transfer_in(cpu, k);
}
void EagerTrackingVo::reload_hw_state(hw::Cpu& cpu, kernel::Kernel& k) {
  inner_.reload_hw_state(cpu, k);
}

}  // namespace mercury::core
