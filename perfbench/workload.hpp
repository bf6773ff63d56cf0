// What one pass of a workload produces, and the helpers the three workloads
// share for reading the layers' public stats structs.
//
// A pass is set-up (fresh machines, host-timed as set-up) followed by a
// closed loop of operations (host-timed) and an untimed teardown. Passes of
// one run are identical simulations, so every simulated value, and the
// digest over them, must repeat exactly from pass to pass.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/switch_engine.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "stats.hpp"
#include "vmm/hypervisor.hpp"

namespace perfbench {

namespace core = mercury::core;
namespace hw = mercury::hw;
namespace kernel = mercury::kernel;
namespace vmm = mercury::vmm;

using Values = std::map<std::string, double>;

struct PassResult {
  double setup_s = 0.0;  // host: building and booting machines
  double timed_s = 0.0;  // host: the closed loop of operations
  double sim_us = 0.0;   // simulated microseconds the timed loop advanced
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // wrong outputs: each fails the run

  Digest digest;     // over every simulated output below and more
  Values sim;        // simulated values and counts: deterministic per seed
  Values host;       // host-clock per-layer values of this pass
  std::map<std::string, std::size_t> samples;  // sample count per metric
  std::map<std::string, std::size_t> beyond;   // samples above its p90

  /// Record p50 and p90 of `ms` (simulated) under `<name>_p50/_p90`, with
  /// the sample count, and feed every sample to the digest.
  void sim_quantiles(const std::string& name, const std::vector<double>& ms);
  /// p50 and p90 of a host-clock distribution (not digested).
  void host_quantiles(const std::string& name, const std::vector<double>& ms);
};

/// Layer counters summed over every machine a pass ran, read from the
/// public stats structs (hw::Tlb, KernelStats, HvStats, SwitchStats).
class LayerCounters {
 public:
  void add_machine(hw::Machine& m);
  void add_kernel(kernel::Kernel& k);
  void add_hypervisor(vmm::Hypervisor& hv);
  void add_engine(core::SwitchEngine& e);
  /// Store the sums (and derived ratios) into `out`.
  void store(Values& out) const;

 private:
  std::uint64_t tlb_hits_ = 0, tlb_misses_ = 0, tlb_flushes_ = 0;
  kernel::KernelStats k_{};
  std::uint64_t cache_hits_ = 0, cache_misses_ = 0;
  vmm::HvStats hv_{};
  core::SwitchStats sw_{};
};

/// Deltas of the registry counters that no public stats struct carries
/// (page-info reconstruction, batched TLB shootdowns, the quarantines of
/// supervisors that live inside an arc), taken across one pass.
class RegistryDelta {
 public:
  RegistryDelta();
  void store(Values& out) const;

 private:
  std::map<std::string, std::uint64_t> base_;
};

/// Simulated time reached by the furthest-ahead CPU of `m`, in cycles.
hw::Cycles machine_now(hw::Machine& m);

inline double cycles_to_ms(hw::Cycles c) {
  return static_cast<double>(c) / static_cast<double>(hw::kCyclesPerMillisecond);
}

PassResult run_guest_steady_pass(std::uint64_t seed);
PassResult run_switch_churn_pass(std::uint64_t seed);
PassResult run_depend_arcs_pass(std::uint64_t seed);

}  // namespace perfbench
