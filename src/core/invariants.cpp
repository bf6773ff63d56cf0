#include "core/invariants.hpp"

#include <algorithm>
#include <cstdio>

#include "core/switch_engine.hpp"
#include "hw/pte.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"

namespace mercury::core {

namespace {

/// Every page-table frame of `k` once, sorted, with whether it is a page
/// directory (a frame the forest lists both ways counts as one).
std::vector<std::pair<hw::Pfn, bool>> page_table_frames(vmm::Hypervisor& hv,
                                                        kernel::Kernel& k) {
  std::vector<std::pair<hw::Pfn, bool>> frames;
  for (const auto& [pfn, type] : hv.collect_tables(k))
    frames.emplace_back(pfn, type == vmm::PageType::kL2);
  // Sort PD entries first within a frame so unique() keeps them.
  std::sort(frames.begin(), frames.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second > b.second;
  });
  frames.erase(std::unique(frames.begin(), frames.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               frames.end());
  return frames;
}

}  // namespace

std::string InvariantReport::to_string() const {
  std::string out;
  for (const std::string& v : violations) {
    out += v;
    out += '\n';
  }
  return out;
}

InvariantReport check_machine_invariants(SwitchEngine& engine) {
  InvariantReport report;
  const auto fail = [&](std::string msg) {
    report.violations.push_back(std::move(msg));
  };

  kernel::Kernel& k = engine.kernel();
  vmm::Hypervisor& hv = engine.hypervisor();
  hw::Machine& m = k.machine();
  const ExecMode mode = engine.mode();
  const bool is_virtual = mode != ExecMode::kNative;

  // --- the kernel's VO pointer names the mode ---
  if (&k.ops() != &engine.current_vo())
    fail(std::string("ops pointer does not match mode ") +
         exec_mode_name(mode) + " (installed: " + k.ops().mode_name() + ")");
  const hw::Ring want_ring = is_virtual ? hw::Ring::kRing1 : hw::Ring::kRing0;
  if (engine.current_vo().kernel_ring() != want_ring)
    fail("current VO kernel_ring disagrees with mode");

  // --- per-CPU hardware control state ---
  const hw::TableToken want_idt = is_virtual ? hv.idt_token() : k.idt_token();
  hw::TrapSink* const want_sink =
      is_virtual ? static_cast<hw::TrapSink*>(&hv)
                 : static_cast<hw::TrapSink*>(&k);
  for (std::size_t c = 0; c < m.num_cpus(); ++c) {
    if (m.cpu(c).trap_sink() != want_sink)
      fail("cpu" + std::to_string(c) + ": trap sink is not the " +
           (is_virtual ? "hypervisor" : "kernel"));
    if (!(m.cpu(c).idt() == want_idt))
      fail("cpu" + std::to_string(c) + ": IDT token does not match mode");
  }
  // (The trap-return CPL is deliberately not checked: it is a per-trap
  // latch — hw::Cpu::raise_trap saves and restores it around every trap —
  // so outside a handler it holds whatever the last trap left behind.)
  const hw::Ring want_cpl = is_virtual ? hw::Ring::kRing1 : hw::Ring::kRing0;

  // --- hypervisor activity ---
  if (is_virtual && hv.state() != vmm::Hypervisor::State::kActive)
    fail("virtual mode but hypervisor is not active");
  if (!is_virtual && hv.state() == vmm::Hypervisor::State::kActive)
    fail("native mode but hypervisor is still active");

  // --- page-table writability (read the direct-map PTEs directly) ---
  const auto& l1s = k.kernel_l1_frames();
  for (const auto& [pfn, is_pd] : page_table_frames(hv, k)) {
    const std::size_t idx = pfn - k.base_pfn();
    const std::size_t table = idx / hw::kPtEntries;
    if (pfn < k.base_pfn() || table >= l1s.size()) {
      fail("PT frame " + std::to_string(pfn) + " outside the direct map");
      continue;
    }
    const hw::PhysAddr pte_addr =
        hw::addr_of(l1s[table]) + (idx % hw::kPtEntries) * 4;
    const hw::Pte pte{m.memory().read_u32(pte_addr)};
    if (!pte.present()) {
      fail("PT frame " + std::to_string(pfn) + " has no direct-map mapping");
      continue;
    }
    if (is_virtual && pte.writable())
      fail("virtual mode: PT frame " + std::to_string(pfn) +
           " is writable through the direct map");
    if (!is_virtual && !pte.writable())
      fail("native mode: PT frame " + std::to_string(pfn) +
           " is still write-protected");
    // Frame accounting must agree with the page-table forest while the VMM
    // enforces isolation on it.
    if (is_virtual) {
      const vmm::PageInfo& pi = hv.page_info().at(pfn);
      const vmm::PageType want_type =
          is_pd ? vmm::PageType::kL2 : vmm::PageType::kL1;
      if (pi.type != want_type)
        fail("frame " + std::to_string(pfn) + " typed " +
             vmm::page_type_name(pi.type) + ", page tables say " +
             vmm::page_type_name(want_type));
      if (!pi.pinned)
        fail("frame " + std::to_string(pfn) + " is a live PT but not pinned");
    }
  }

  // --- frame accounting table ---
  if (is_virtual && !hv.page_info().valid())
    fail("virtual mode with an invalid page-info table");
  if (!is_virtual &&
      hv.page_info().valid() != engine.config().eager_page_tracking)
    fail(engine.config().eager_page_tracking
             ? "eager tracking lost page-info validity in native mode"
             : "lazy tracking left the page-info table marked valid");
  if (hv.page_info().valid()) {
    if (const auto err = hv.page_info().check_invariants())
      fail("page-info self-check: " + *err);
  }

  // --- warm re-attach retention state ---
  // "Retained" means stale-but-kept across a detach; it is exclusive with
  // "valid" (live) and can only exist while the machine is native.
  if (hv.page_info().valid() && hv.page_info().retained())
    fail("page-info table is both live (valid) and retained-stale");
  if (is_virtual && hv.page_info().retained())
    fail("virtual mode with a retained-stale page-info table");
  if (!is_virtual && hv.page_info().retained() &&
      engine.config().eager_page_tracking)
    fail("eager tracking and warm retention are mutually exclusive");
  if (const DirtyFrameTracker* dt = engine.dirty_tracker();
      dt != nullptr && dt->armed() && is_virtual)
    fail("dirty tracker armed while the VMM is attached");

  // --- split-driver backends follow the full-virtual role ---
  const bool want_connected = mode == ExecMode::kFullVirtual;
  if (hv.blk_backend().connected() != want_connected)
    fail(want_connected ? "full-virtual mode without a connected blk backend"
                        : "blk backend still connected outside full mode");
  if (hv.net_backend().connected() != want_connected)
    fail(want_connected ? "full-virtual mode without a connected net backend"
                        : "net backend still connected outside full mode");

  // --- saved kernel-stack selectors (only decidable under eager fixup; the
  // lazy stub legitimately leaves stale RPLs until resume) ---
  if (engine.config().eager_selector_fixup) {
    k.for_each_task([&](kernel::Task& t) {
      if (!t.saved_ctx.valid) return;
      const auto check_sel = [&](hw::SegmentSelector cs, const char* which) {
        if (cs.rpl() == hw::Ring::kRing3) return;  // user frame
        if (cs.rpl() != want_cpl)
          fail("task " + t.name + ": " + which +
               " frame selector RPL does not match mode");
      };
      check_sel(t.saved_ctx.cs, "base");
      for (const kernel::NestedFrame& f : t.saved_ctx.nested)
        check_sel(f.cs, "nested");
    });
  }

  MERC_COUNT("invariants.checks");
  MERC_COUNT_N("invariants.violations", report.violations.size());
  MERC_FLIGHT(m.cpu(0), kInvariantVerdict, "invariants.check",
              report.violations.size());
  if (!report.ok()) {
    // A violated machine invariant is exactly what the black box exists
    // for: dump the bundle before the caller decides whether to abort.
    obs::PostmortemContext ctx;
    ctx.reason = "invariant-failure";
    ctx.detail = report.to_string();
    ctx.switch_from = exec_mode_name(mode);
    ctx.active_refs =
        static_cast<std::int64_t>(engine.current_vo().active_refs());
    for (std::size_t i = 0; i < m.num_cpus(); ++i)
      ctx.cpu_clocks.emplace_back(m.cpu(i).id(), m.cpu(i).now());
    const vmm::PageInfoTable& pit = hv.page_info();
    ctx.extra.emplace_back("page_info.shard_count", pit.shard_count());
    ctx.extra.emplace_back("page_info.rebuilt_total", pit.rebuilt_total());
    ctx.extra.emplace_back("page_info.typed_total", pit.typed_total());
    ctx.extra.emplace_back("invariants.violations", report.violations.size());
    obs::write_postmortem(ctx);
  }
  return report;
}

}  // namespace mercury::core
