#include "workload.hpp"

#include <algorithm>
#include <utility>

#include "kernel/fs/minifs.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

void PassResult::sim_quantiles(const std::string& name,
                               const std::vector<double>& ms) {
  const Quantile p50 = percentile(ms, 0.5);
  sim[name + "_p50"] = p50.value;
  sim[name + "_p90"] = percentile(ms, 0.9).value;
  samples[name] = p50.samples;
  beyond[name] = samples_beyond(ms, 0.9);
  digest.add(name);
  for (const double v : ms) digest.add(v);
}

void PassResult::host_quantiles(const std::string& name,
                                const std::vector<double>& ms) {
  host[name + "_p50"] = percentile(ms, 0.5).value;
  host[name + "_p90"] = percentile(ms, 0.9).value;
}

void LayerCounters::add_machine(hw::Machine& m) {
  for (std::size_t c = 0; c < m.num_cpus(); ++c) {
    const hw::Tlb& tlb = m.cpu(c).tlb();
    tlb_hits_ += tlb.hits();
    tlb_misses_ += tlb.misses();
    tlb_flushes_ += tlb.flushes();
  }
}

void LayerCounters::add_kernel(kernel::Kernel& k) {
  const kernel::KernelStats& s = k.stats();
  k_.syscalls += s.syscalls;
  k_.page_faults += s.page_faults;
  k_.cow_breaks += s.cow_breaks;
  k_.context_switches += s.context_switches;
  k_.interrupts += s.interrupts;
  k_.timer_ticks += s.timer_ticks;
  k_.selector_fixups += s.selector_fixups;
  cache_hits_ += k.fs().cache().hits();
  cache_misses_ += k.fs().cache().misses();
}

void LayerCounters::add_hypervisor(vmm::Hypervisor& hv) {
  const vmm::HvStats& s = hv.stats();
  hv_.hypercalls += s.hypercalls;
  hv_.traps_dispatched += s.traps_dispatched;
  hv_.pte_validations += s.pte_validations;
  hv_.emulated_pte_writes += s.emulated_pte_writes;
  hv_.cr3_switches += s.cr3_switches;
  hv_.pins += s.pins;
}

void LayerCounters::add_engine(core::SwitchEngine& e) {
  const core::SwitchStats& s = e.stats();
  sw_.attaches += s.attaches;
  sw_.detaches += s.detaches;
  sw_.deferrals += s.deferrals;
  sw_.rollbacks += s.rollbacks;
  sw_.validation_aborts += s.validation_aborts;
  sw_.warm_attaches += s.warm_attaches;
  sw_.warm_fallbacks += s.warm_fallbacks;
}

void LayerCounters::store(Values& out) const {
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out["hw.tlb.hits"] = d(tlb_hits_);
  out["hw.tlb.misses"] = d(tlb_misses_);
  out["hw.tlb.hit_ratio"] = ratio(tlb_hits_, tlb_hits_ + tlb_misses_);
  out["hw.tlb.flushes"] = d(tlb_flushes_);
  out["kernel.syscalls"] = d(k_.syscalls);
  out["kernel.page_faults"] = d(k_.page_faults);
  out["kernel.cow_breaks"] = d(k_.cow_breaks);
  out["kernel.context_switches"] = d(k_.context_switches);
  out["kernel.interrupts"] = d(k_.interrupts);
  out["kernel.timer_ticks"] = d(k_.timer_ticks);
  out["kernel.selector_fixups"] = d(k_.selector_fixups);
  out["kernel.fs.block_cache_hit_ratio"] =
      ratio(cache_hits_, cache_hits_ + cache_misses_);
  out["vmm.hypercalls"] = d(hv_.hypercalls);
  out["vmm.traps_dispatched"] = d(hv_.traps_dispatched);
  out["vmm.pte_validations"] = d(hv_.pte_validations);
  out["vmm.emulated_pte_writes"] = d(hv_.emulated_pte_writes);
  out["vmm.cr3_switches"] = d(hv_.cr3_switches);
  out["vmm.pins"] = d(hv_.pins);
  out["core.switch.attaches"] = d(sw_.attaches);
  out["core.switch.detaches"] = d(sw_.detaches);
  out["core.switch.deferrals"] = d(sw_.deferrals);
  out["core.switch.rollbacks"] = d(sw_.rollbacks);
  out["core.switch.validation_aborts"] = d(sw_.validation_aborts);
  out["core.switch.warm_attaches"] = d(sw_.warm_attaches);
  out["core.switch.warm_fallbacks"] = d(sw_.warm_fallbacks);
  out["core.switch.warm_ratio"] = ratio(sw_.warm_attaches, sw_.attaches);
}

namespace {

// {registry counter, benchmark metric}
constexpr std::pair<const char*, const char*> kRegistryCounters[] = {
    {"vmm.page_info.frames_reconstructed", "vmm.page_info.frames_reconstructed"},
    {"vmm.page_info.tables_revalidated", "vmm.page_info.tables_revalidated"},
    {"vmm.page_info.table_validations_skipped",
     "vmm.page_info.table_validations_skipped"},
    {"vmm.tlb_batch_shootdowns", "vmm.tlb_batch_shootdowns"},
    {"switch.supervisor.quarantines", "core.supervisor.quarantines"},
};

}  // namespace

RegistryDelta::RegistryDelta() {
  for (const auto& [counter, metric] : kRegistryCounters)
    base_[counter] = mercury::obs::registry().counter(counter).value();
}

void RegistryDelta::store(Values& out) const {
  for (const auto& [counter, metric] : kRegistryCounters)
    out[metric] = static_cast<double>(
        mercury::obs::registry().counter(counter).value() - base_.at(counter));
}

hw::Cycles machine_now(hw::Machine& m) {
  hw::Cycles t = 0;
  for (std::size_t c = 0; c < m.num_cpus(); ++c) t = std::max(t, m.cpu(c).now());
  return t;
}

}  // namespace perfbench
