// Failure injection for dependability scenarios: sensor anomalies (the
// §6.5 failure-prediction signal), link failures, node crashes, and the
// kernel-state taint §6.2's self-heal repairs.
#pragma once

#include <cstdint>

#include "cluster/fabric.hpp"

namespace mercury::cluster {

class FailureInjector {
 public:
  /// Arrange for the node's temperature sensor to report an over-threshold
  /// value at simulated time `at` (kernel-timer driven).
  static void schedule_overheat(Node& node, hw::Cycles at,
                                double temperature_c = 96.0);
  static void schedule_fan_failure(Node& node, hw::Cycles at);

  /// Hard-kill a node at time `at` (unpredicted failure).
  static void schedule_crash(Node& node, hw::Cycles at);

  /// Degrade the link between two nodes.
  static void set_link_loss(Fabric& fabric, Node& a, Node& b,
                            double drop_probability);

  /// Corrupt one present user PTE of `pid` so it points at a
  /// hypervisor-owned frame (the kind of kernel-state taint §6.2 targets).
  /// Returns true if an entry was corrupted.
  static bool corrupt_user_pte(core::Mercury& mercury, kernel::Pid pid);
};

}  // namespace mercury::cluster
