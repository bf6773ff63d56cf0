// Dependability arcs: the paper's §6 services driven end-to-end as
// *supervised* native → attach → service → detach → native stories, every
// failure mode survivable. They are the one orchestration layer for §6:
// examples, benches and tests all run the services through these arcs.
//
// Five arcs:
//
//   live-update         attach, quiesce + patch the kernel, detach (§6.4)
//   checkpoint-restart  attach, snapshot, diverge, restore, verify, detach
//                       (§6.1) — the restore path is a first-class fault
//                       surface: a fault mid-write-back triggers supervised
//                       retry → undo-snapshot rollback → quarantine, never
//                       a half-restored machine
//   self-heal           attach in heal mode (adoption repairs tainted page
//                       tables instead of crashing the domain), detach
//                       (§6.2)
//   migrate             two fabric nodes; the loaded OS goes full-virtual,
//                       live-migrates out over iterative pre-copy (riding
//                       the warm-reattach DirtyFrameTracker for
//                       content-dirty frames), serves on the destination
//                       with reconnected split-I/O frontends, migrates
//                       home, and both nodes return to native (§6.3). A
//                       mid-stream fault aborts the transfer and rolls the
//                       source back; the arc retries the whole leg.
//   evacuate            the migrate arc's outbound leg alone: the OS leaves
//                       a node whose failure is predicted and stays on the
//                       receiver (§6.5)
//
// migrate and evacuate share one migration leg (sender → receiver, rebind,
// swap the nodes' active kernels). Every mode switch goes through a scoped
// SwitchSupervisor (retry/backoff/quarantine), every service step runs
// under its own retry → rollback → quarantine ladder catching
// core::FaultInjected, and the whole arc is measured as a *dependability
// window*: total cycles native-to-native, decomposed via the ambient pause
// ledger into service phases. bench_depend serializes the live-update,
// checkpoint-restart and migrate arcs as mercury.depend.v1 and CI gates it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "core/switch_supervisor.hpp"
#include "vmm/migrate.hpp"

namespace mercury::cluster {

/// A §6.4 kernel update: what the attached VMM applies while the kernel is
/// quiesced.
struct KernelPatch {
  std::string description;
  std::function<void(kernel::Kernel&)> apply_fn;
  hw::Cycles patch_work = 150 * hw::kCyclesPerMicrosecond;  // redirection setup
};

struct DependConfig {
  /// Supervisor settings for the arc-scoped switch supervisors.
  core::SupervisorConfig supervisor;
  /// Migration tuning for the migrate and evacuate arcs
  /// (harvest_content_dirty is wired by the arc itself; anything set here
  /// is overridden).
  vmm::MigrationConfig migration;
  /// Retry budget for the service step (capture, restore, one migration
  /// leg). Exhaustion escalates to rollback + quarantine.
  std::uint32_t service_max_attempts = 4;
};

/// One arc's verdict and window decomposition. The dichotomy the fault
/// matrix asserts: a completed arc has success (service rendered, machine
/// verified) or quarantined (service abandoned *cleanly*: state rolled
/// back or left consistent, postmortem written) — never neither.
struct ArcReport {
  std::string service;  // "live-update" | "checkpoint-restart" |
                        // "self-heal" | "migrate" | "evacuate"
  bool success = false;
  bool quarantined = false;
  bool rolled_back = false;  // the undo path ran (restore undo / source abort)
  bool verified = false;     // post-service integrity check passed
  std::uint64_t attempts = 0;  // service-step attempts (1 = clean first try)
  std::uint64_t retries = 0;   // attempts beyond the first
  std::uint64_t faults = 0;    // FaultInjected caught by the arc
  std::uint64_t switch_attempts = 0;  // supervisor commit attempts, all sups
  std::uint64_t switch_retries = 0;
  std::uint64_t stranded_requests = 0;    // non-terminal supervised requests
  std::uint64_t invariant_violations = 0;
  std::string postmortem_path;  // written on quarantine

  // The dependability window, native-to-native.
  hw::Cycles window_cycles = 0;
  hw::Cycles attach_cycles = 0;   // last attach of the workload-bearing node
  hw::Cycles service_cycles = 0;  // service phase (attach..detach interior)
  hw::Cycles detach_cycles = 0;
  /// Guest-frozen downtime inside the window: stop-and-copy for migrate
  /// and evacuate, capture+restore copy windows for checkpoint, rendezvous
  /// parking for live-update and self-heal.
  hw::Cycles downtime_cycles = 0;

  // Pause-ledger decomposition of the window (cycles per cause).
  std::uint64_t pause_intervals = 0;
  std::uint64_t pause_unattributed = 0;
  hw::Cycles pause_rendezvous_cycles = 0;
  hw::Cycles pause_stopcopy_cycles = 0;
  hw::Cycles pause_checkpoint_cycles = 0;
  hw::Cycles pause_backoff_cycles = 0;
  hw::Cycles pause_rollback_cycles = 0;

  // Migrate/evacuate specifics (zero elsewhere).
  std::uint64_t pages_sent = 0;
  std::uint64_t pages_total = 0;
  std::uint64_t precopy_rounds = 0;

  /// The completion dichotomy: rendered-and-verified, or cleanly abandoned.
  bool completed_cleanly() const {
    return (success || quarantined) && stranded_requests == 0 &&
           invariant_violations == 0;
  }
};

/// §6.4: attach → quiesce + apply `patch` → detach, supervised.
ArcReport live_update_arc(Node& node, const KernelPatch& patch,
                          const DependConfig& cfg = {});

/// §6.1: attach → capture → diverge → restore (fault surface) → verify
/// bit-exactness + invariants → detach. A restore that cannot complete
/// within the retry budget is rolled back to an undo snapshot taken
/// immediately before the first attempt.
ArcReport checkpoint_restart_arc(Node& node, const DependConfig& cfg = {});

/// §6.3: round-trip live migration between two fabric nodes. dst goes
/// partial-virtual (backend/driver-domain split-I/O host), src goes
/// full-virtual, the OS migrates out, serves, migrates home, and both
/// nodes return native. Mid-stream faults abort a leg (source rolled back
/// by LiveMigration's unwind) and the arc retries the leg.
ArcReport migrate_arc(Node& src, Node& dst, const DependConfig& cfg = {});

/// §6.5: react to a failure prediction on src. dst goes partial-virtual,
/// src goes full-virtual, and the OS migrates to dst and stays there
/// (success = dst hosts it; the nodes keep their virtual modes). An
/// outbound leg that keeps failing rolls the source back, returns both
/// nodes native and quarantines. window_cycles runs from the prediction
/// (the call, on src's clock) to safety (the OS admitted on dst, on dst's
/// clock); downtime_cycles is the leg's stop-and-copy through dst's
/// admission.
ArcReport evacuate_arc(Node& src, Node& dst, const DependConfig& cfg = {});

/// §6.2: attach with the hypervisor in heal mode, so adoption's page-table
/// validation repairs tainted entries instead of crashing the domain, then
/// detach. Heal mode is on for this arc only. verified = no domain crashed
/// and the machine invariants hold; the repair count is the hypervisor's
/// stats().entries_healed.
ArcReport self_heal_arc(Node& node, const DependConfig& cfg = {});

/// The bench_depend document: one run = the live-update, checkpoint-restart
/// and migrate arcs under one fault regime (rate 0 = clean).
struct DependReport {
  std::uint64_t seed = 0;
  double storm_rate = 0.0;
  std::uint64_t storm_fires = 0;
  std::vector<ArcReport> arcs;

  bool all_completed_cleanly() const {
    if (arcs.empty()) return false;
    for (const ArcReport& a : arcs)
      if (!a.completed_cleanly()) return false;
    return true;
  }
};

/// Serialize as mercury.depend.v1 (see scripts/check_bench_json.py).
std::string depend_report_json(const DependReport& r);
/// Write the document; false on I/O failure.
bool write_depend_report(const DependReport& r, const std::string& path);

}  // namespace mercury::cluster
