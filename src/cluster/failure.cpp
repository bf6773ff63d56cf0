#include "cluster/failure.hpp"

#include "kernel/syscalls.hpp"
#include "util/assert.hpp"

namespace mercury::cluster {

void FailureInjector::schedule_overheat(Node& node, hw::Cycles at,
                                        double temperature_c) {
  Node* n = &node;
  node.active().add_timer(
      at, [n, temperature_c] { n->machine().sensors().inject_overheat(temperature_c); });
}

void FailureInjector::schedule_fan_failure(Node& node, hw::Cycles at) {
  Node* n = &node;
  node.active().add_timer(at, [n] { n->machine().sensors().inject_fan_failure(); });
}

void FailureInjector::schedule_crash(Node& node, hw::Cycles at) {
  Node* n = &node;
  node.active().add_timer(at, [n] { n->fail(); });
}

void FailureInjector::set_link_loss(Fabric& fabric, Node& a, Node& b,
                                    double drop_probability) {
  hw::Link* link = fabric.link_between(a, b);
  MERC_CHECK_MSG(link != nullptr, "no link between nodes");
  link->set_drop_probability(drop_probability);
}

bool FailureInjector::corrupt_user_pte(core::Mercury& mercury,
                                       kernel::Pid pid) {
  kernel::Kernel& k = mercury.kernel();
  kernel::Task* t = k.find_task(pid);
  if (t == nullptr || !t->aspace) return false;
  vmm::Hypervisor& hv = mercury.hypervisor();

  for (const auto& vma : t->aspace->vmas()) {
    for (hw::VirtAddr va = vma.start; va < vma.end; va += hw::kPageSize) {
      const hw::Pfn l1 = t->aspace->l1_for_pde(hw::pde_index(va));
      if (l1 == 0) continue;
      const hw::PhysAddr pte_addr = hw::addr_of(l1) + hw::pte_index(va) * 4;
      hw::Pte pte{k.machine().memory().read_u32(pte_addr)};
      if (!pte.present()) continue;
      // Taint: point the mapping at a hypervisor-owned frame (a fault/bug
      // scribbled over the page table).
      pte.set_pfn(hv.reserved_first());
      k.machine().memory().write_u32(pte_addr, pte.raw);
      for (std::size_t c = 0; c < k.machine().num_cpus(); ++c)
        k.machine().cpu(c).tlb().flush_global();
      return true;
    }
  }
  return false;
}

}  // namespace mercury::cluster
