// Paper §6.1: checkpointing and restarting of operating systems.
//
// The pre-cached VMM is attached periodically, snapshots the whole OS
// domain (memory image + vcpu state), and detaches. When a software failure
// corrupts the system, the snapshot is restored. The failure here is an
// outside overwrite of one chosen word, which guest code cannot make, so
// this example drives the Checkpointer directly; checkpoint_restart_arc
// (cluster/depend.hpp) is the supervised form with guest divergence.
#include <cstdio>

#include "core/mercury.hpp"
#include "kernel/syscalls.hpp"
#include "vmm/checkpoint.hpp"

using namespace mercury;
using kernel::Sub;
using kernel::Sys;

int main() {
  hw::MachineConfig mc;
  mc.mem_kb = 192 * 1024;
  hw::Machine machine(mc);
  core::MercuryConfig cfg;
  cfg.kernel_frames = (64ull * 1024 * 1024) / hw::kPageSize;
  core::Mercury mercury(machine, cfg);

  // A process with recognizable in-memory state.
  hw::VirtAddr state_page = 0;
  kernel::Pid pid = mercury.kernel().spawn("stateful", [&](Sys& s) -> Sub<void> {
    state_page = s.mmap(hw::kPageSize, true);
    s.touch_pages(state_page, 1, true);
    for (;;) co_await s.sleep_us(5000.0);
  });
  mercury.kernel().run_for(5 * hw::kCyclesPerMillisecond);

  // Write a magic value into the process's page (through its page tables).
  kernel::Task* task = mercury.kernel().find_task(pid);
  auto& mmu = machine.mmu();
  hw::Cpu& cpu = machine.cpu(0);
  const hw::Ring prev = cpu.cpl();
  cpu.set_cpl(hw::Ring::kRing0);
  cpu.write_cr3(task->aspace->page_directory());
  mmu.write_u32(cpu, state_page, 0xC0FFEE42);
  std::printf("application state written: 0x%08X\n", mmu.read_u32(cpu, state_page));

  // Periodic checkpoint (attach -> snapshot -> detach).
  const hw::Cycles c0 = cpu.now();
  MERC_CHECK(mercury.switch_to(core::ExecMode::kPartialVirtual));
  const vmm::Snapshot snapshot = vmm::Checkpointer::take(
      cpu, mercury.hypervisor(), mercury.driver_vo().dom());
  MERC_CHECK(mercury.switch_to(core::ExecMode::kNative));
  std::printf("checkpoint: %.1f MB in %.2f ms (VMM attached only for the "
              "snapshot)\n",
              static_cast<double>(snapshot.bytes()) / (1024 * 1024),
              hw::cycles_to_us(cpu.now() - c0) / 1000.0);

  // Disaster: the application state is scribbled over.
  mmu.write_u32(cpu, state_page, 0xDEADDEAD);
  std::printf("failure injected: state now 0x%08X\n",
              mmu.read_u32(cpu, state_page));

  // Restore from the last checkpoint (attach -> write back -> detach). The
  // image is compared while the VMM is still attached: the detach re-flips
  // page-table writability bits, so bit-exactness is defined against the
  // attached image.
  const hw::Cycles r0 = cpu.now();
  MERC_CHECK(mercury.switch_to(core::ExecMode::kPartialVirtual));
  vmm::Checkpointer::restore(cpu, mercury.hypervisor(), snapshot);
  const bool bit_exact =
      vmm::Checkpointer::matches(mercury.hypervisor(), snapshot);
  MERC_CHECK(mercury.switch_to(core::ExecMode::kNative));
  const hw::Cycles restore_cycles = cpu.now() - r0;
  const std::uint32_t recovered = mmu.read_u32(cpu, state_page);
  cpu.set_cpl(prev);
  std::printf("restored in %.2f ms: state is 0x%08X again\n",
              hw::cycles_to_us(restore_cycles) / 1000.0, recovered);
  std::printf("memory image bit-exact vs snapshot: %s\n",
              bit_exact ? "yes" : "no");
  return recovered == 0xC0FFEE42 && bit_exact ? 0 : 1;
}
