// switch-churn: repeated native dwell -> attach -> virtual dwell -> detach
// round trips on one Mercury-Linux (4 CPUs, 900 MB kernel, a crew of three,
// warm re-attach on) carrying four resident processes and a dirtier. The
// dirtier's write set in each native dwell is drawn from the seed; a
// quarter of the draws overflow the DirtyFrameTracker and force a cold
// attach, so the same switch path runs both as a dirty-set rebuild and as a
// full rebuild: p50 reads a warm attach, p90 a cold one. The switch engine
// (rendezvous, crew, state transfer, dirty tracker) and VMM page-info do
// most of the work; the kernel does little.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "core/mercury.hpp"
#include "kernel/syscalls.hpp"
#include "obs/metrics.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCpus = 4;
constexpr std::size_t kKernelMemKb = 900'000;
constexpr int kResidents = 4;
/// Round trips per pass: enough that p90 of attach has ten samples beyond.
constexpr int kRoundTrips = 100;
/// Dirty-set bound of the warm path (SwitchConfig::warm_dirty_capacity),
/// small enough that writing past it in a dwell costs the kernel far less
/// host time than the switches cost the switch engine.
constexpr std::size_t kDirtyCapacity = 2048;
/// Dwells per pass whose write set is drawn above the tracker capacity. The
/// count is fixed and the seed places them, so every seed's pass does the
/// same mix of warm and cold work.
constexpr int kColdTrips = 25;
/// Machine-invariant check after every this many round trips.
constexpr int kInvariantEvery = 8;
constexpr hw::Cycles kDwell = hw::kCyclesPerMillisecond;

/// Mailbox between the benchmark and the dirtier task: the benchmark posts
/// a page count, the dirtier maps that many fresh pages, writes them and
/// unmaps them, then clears the count. Fresh frames are what the tracker
/// sees (allocation, zeroing, page-table writes, release); rewriting pages
/// that are already mapped and dirty would go unnoticed.
struct DirtyPlan {
  std::size_t max_pages = 0;
  std::size_t pending = 0;
};

}  // namespace

PassResult run_switch_churn_pass(std::uint64_t seed) {
  PassResult r;
  const RegistryDelta registry;
  mercury::util::Rng rng(seed);

  // --- set-up: machine, Mercury (VMM warm-up), residents, dirtier ---
  DirtyPlan plan;  // outlives the kernel whose task reads it
  const Clock::time_point setup0 = Clock::now();
  hw::MachineConfig mc;
  mc.num_cpus = kCpus;
  mc.mem_kb = kKernelMemKb + 80 * 1024;  // VMM reservation + holdback headroom
  mc.seed = seed;
  Clock::time_point t0 = Clock::now();
  auto machine = traced("hw", "Machine", [&] { return std::make_unique<hw::Machine>(mc); });
  r.host["hw.machine_build_host_s"] = seconds_since(t0);

  core::MercuryConfig cfg;
  cfg.kernel_frames = kKernelMemKb * 1024 / hw::kPageSize;
  cfg.switch_config.crew_workers = kCpus - 1;
  cfg.switch_config.warm_reattach = true;
  cfg.switch_config.warm_dirty_capacity = kDirtyCapacity;
  t0 = Clock::now();
  auto mercury = traced("core", "Mercury",
                        [&] { return std::make_unique<core::Mercury>(*machine, cfg); });
  r.host["core.mercury_boot_host_s"] = seconds_since(t0);
  kernel::Kernel& k = mercury->kernel();

  constexpr std::size_t capacity = kDirtyCapacity;
  for (int i = 0; i < kResidents; ++i) {
    k.spawn("resident", [](kernel::Sys& s) -> kernel::Sub<void> {
      const hw::VirtAddr va = s.mmap(64 * hw::kPageSize, true);
      s.touch_pages(va, 64, true);
      for (;;) co_await s.sleep_us(50'000.0);
    });
  }
  plan.max_pages = capacity * 7 / 4;
  k.spawn("dirtier", [p = &plan](kernel::Sys& s) -> kernel::Sub<void> {
    // One address range, reused by every dwell (mmap never reuses space).
    const hw::VirtAddr base = s.mmap(p->max_pages * hw::kPageSize, true);
    s.munmap(base, p->max_pages * hw::kPageSize);
    for (;;) {
      if (p->pending != 0) {
        const std::size_t bytes = p->pending * hw::kPageSize;
        s.mmap_fixed(base, bytes, true);
        s.touch_pages(base, p->pending, true);
        s.munmap(base, bytes);
        p->pending = 0;
      }
      co_await s.sleep_us(200.0);
    }
  });
  traced("kernel", "Kernel::run_for", [&] { k.run_for(5 * hw::kCyclesPerMillisecond); });
  r.setup_s = seconds_since(setup0);

  // --- timed loop ---
  core::SwitchEngine& engine = mercury->engine();
  const core::SwitchStats& st = engine.stats();
  const hw::Cycles sim0 = machine_now(*machine);
  std::vector<double> attach_ms, detach_ms, rendezvous_ms, page_info_ms,
      protection_ms, defer_ms, pause_ms, host_ms, dirty_frames, retained,
      crew_util;
  const auto switch_op = [&](core::ExecMode target, const char* name) {
    recorder().next_op();
    const Clock::time_point s0 = Clock::now();
    const bool ok = traced("core", name, [&] { return mercury->switch_to(target); });
    const double host = seconds_since(s0);
    r.timed_s += host;
    host_ms.push_back(host * 1e3);
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      return false;
    }
    defer_ms.push_back(cycles_to_ms(st.last_defer_wait_cycles));
    pause_ms.push_back(cycles_to_ms(st.last_max_pause_cycles));
    crew_util.push_back(
        mercury::obs::registry().gauge("switch.crew.utilization").value());
    return true;
  };

  std::vector<char> cold_trip(kRoundTrips, 0);
  std::fill(cold_trip.begin(), cold_trip.begin() + kColdTrips, 1);
  for (std::size_t i = cold_trip.size(); i > 1; --i)  // Fisher-Yates
    std::swap(cold_trip[i - 1], cold_trip[rng.below(i)]);

  for (int trip = 0; trip < kRoundTrips; ++trip) {
    // Native dwell: the drawn write set, then a tick of background work.
    const bool cold = cold_trip[trip] != 0;
    plan.pending = cold ? rng.between(capacity * 5 / 4, plan.max_pages)
                        : rng.between(16, capacity / 2);
    r.digest.add(static_cast<std::uint64_t>(plan.pending));
    const Clock::time_point d0 = Clock::now();
    recorder().next_op();
    traced("kernel", "Kernel::run_until", [&] {
      return k.run_until([&] { return plan.pending == 0; },
                         1000 * hw::kCyclesPerMillisecond);
    });
    traced("kernel", "Kernel::run_for", [&] { k.run_for(kDwell); });
    r.timed_s += seconds_since(d0);

    const std::uint64_t warm0 = st.warm_attaches;
    if (switch_op(core::ExecMode::kPartialVirtual, "Mercury::switch_to(virtual)")) {
      attach_ms.push_back(cycles_to_ms(st.last_attach_cycles));
      rendezvous_ms.push_back(cycles_to_ms(st.last_rendezvous_cycles));
      page_info_ms.push_back(cycles_to_ms(st.last_transfer.page_info_cycles));
      if (st.warm_attaches != warm0) {
        dirty_frames.push_back(static_cast<double>(st.last_dirty_frames));
        retained.push_back(static_cast<double>(st.last_frames_retained));
      }
    }
    const Clock::time_point v0 = Clock::now();
    traced("kernel", "Kernel::run_for", [&] { k.run_for(kDwell); });
    r.timed_s += seconds_since(v0);
    if (switch_op(core::ExecMode::kNative, "Mercury::switch_to(native)")) {
      detach_ms.push_back(cycles_to_ms(st.last_detach_cycles));
      protection_ms.push_back(cycles_to_ms(st.last_transfer.protection_cycles));
    }

    if ((trip + 1) % kInvariantEvery == 0) {
      const core::InvariantReport rep = core::check_machine_invariants(engine);
      if (!rep.ok())
        r.errors.push_back("invariants after round trip " +
                           std::to_string(trip + 1) + ": " + rep.to_string());
    }
  }
  r.sim_us = static_cast<double>(machine_now(*machine) - sim0) /
             static_cast<double>(hw::kCyclesPerMicrosecond);
  if (engine.mode() != core::ExecMode::kNative)
    r.errors.push_back("machine did not end the loop native");

  r.sim_quantiles("attach_ms", attach_ms);
  r.sim_quantiles("detach_ms", detach_ms);
  r.sim_quantiles("core.switch.rendezvous_ms", rendezvous_ms);
  r.sim_quantiles("core.switch.page_info_ms", page_info_ms);
  r.sim_quantiles("core.switch.protection_ms", protection_ms);
  r.sim_quantiles("core.switch.defer_wait_ms", defer_ms);
  r.sim_quantiles("core.switch.max_pause_ms", pause_ms);
  r.sim_quantiles("core.switch.dirty_frames", dirty_frames);
  r.sim_quantiles("core.switch.frames_retained", retained);
  r.sim["core.crew.utilization"] = median(crew_util);
  r.host_quantiles("core.switch.host_ms", host_ms);

  LayerCounters layers;
  layers.add_machine(*machine);
  layers.add_kernel(k);
  layers.add_hypervisor(mercury->hypervisor());
  layers.add_engine(engine);
  layers.store(r.sim);
  registry.store(r.sim);
  for (const auto& [name, v] : r.sim) {
    r.digest.add(std::string_view(name));
    r.digest.add(v);
  }
  return r;
}

}  // namespace perfbench
