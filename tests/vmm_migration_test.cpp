// Live migration + checkpoint/restore correctness.
#include <gtest/gtest.h>

#include <optional>
#include <string_view>

#include "cluster/depend.hpp"
#include "cluster/fabric.hpp"
#include "kernel/syscalls.hpp"
#include "obs/obs.hpp"
#include "vmm/checkpoint.hpp"
#include "vmm/migrate.hpp"

namespace mercury::testing {
namespace {

using cluster::Fabric;
using cluster::Node;
using kernel::Sub;
using kernel::Sys;

struct TwoNodes {
  TwoNodes() {
    a = &fabric.add_node("a");
    b = &fabric.add_node("b");
    fabric.connect(*a, *b);
  }
  Fabric fabric;
  Node* a = nullptr;
  Node* b = nullptr;
};

TEST(MigrationTest, GuestMemoryContentsArriveBitExact) {
  TwoNodes t;
  // Plant a recognizable value in guest memory via a process page.
  hw::VirtAddr page = 0;
  kernel::Pid pid = t.a->mercury().kernel().spawn("holder", [&](Sys& s) -> Sub<void> {
    page = s.mmap(hw::kPageSize, true);
    s.touch_pages(page, 1, true);
    for (;;) co_await s.sleep_us(20'000.0);
  });
  t.a->mercury().kernel().run_for(5 * hw::kCyclesPerMillisecond);
  kernel::Task* task = t.a->mercury().kernel().find_task(pid);
  auto pte = t.a->machine().mmu().peek_pte(
      [&]() -> hw::Cpu& {
        hw::Cpu& c = t.a->machine().cpu(0);
        c.set_cpl(hw::Ring::kRing0);
        c.write_cr3(task->aspace->page_directory());
        return c;
      }(),
      page);
  ASSERT_TRUE(pte.has_value());
  const hw::Pfn old_frame = pte->pfn();
  t.a->machine().memory().write_u32(hw::addr_of(old_frame) + 128, 0x5EC0FFEE);

  const auto ev = cluster::evacuate_arc(*t.a, *t.b);
  ASSERT_TRUE(ev.success);

  // Same kernel object, new machine + frames: content must have traveled.
  kernel::Kernel& guest = t.a->mercury().kernel();
  EXPECT_EQ(&guest.machine(), &t.b->machine());
  auto pte2 = [&] {
    hw::Cpu& c = t.b->machine().cpu(0);
    c.set_cpl(hw::Ring::kRing0);
    c.write_cr3(guest.find_task(pid)->aspace->page_directory());
    return t.b->machine().mmu().peek_pte(c, page);
  }();
  ASSERT_TRUE(pte2.has_value());
  EXPECT_NE(pte2->pfn(), old_frame) << "frames are renumbered on the target";
  EXPECT_EQ(t.b->machine().memory().read_u32(hw::addr_of(pte2->pfn()) + 128),
            0x5EC0FFEEu);
}

TEST(MigrationTest, GuestKeepsRunningAfterMigration) {
  TwoNodes t;
  long counter = 0;
  t.a->mercury().kernel().spawn("worker", [&](Sys& s) -> Sub<void> {
    const auto va = s.mmap(16 * hw::kPageSize, true);
    for (;;) {
      s.touch_pages(va, 16, true);
      co_await s.compute_us(300.0);
      ++counter;
    }
  });
  t.a->mercury().kernel().run_for(10 * hw::kCyclesPerMillisecond);
  const long before = counter;
  ASSERT_GT(before, 0);

  const auto ev = cluster::evacuate_arc(*t.a, *t.b);
  ASSERT_TRUE(ev.success);
  t.a->mercury().kernel().run_for(10 * hw::kCyclesPerMillisecond);
  EXPECT_GT(counter, before);
}

TEST(MigrationTest, DirtyPagesTriggerExtraRounds) {
  TwoNodes t;
  // A write-heavy guest dirties pages between pre-copy rounds.
  t.a->mercury().kernel().spawn("dirtier", [&](Sys& s) -> Sub<void> {
    const auto va = s.mmap(512 * hw::kPageSize, true);
    s.touch_pages(va, 512, true);
    for (;;) {
      s.touch_pages(va, 256, true);
      co_await s.compute_us(100.0);
    }
  });
  t.a->mercury().kernel().run_for(10 * hw::kCyclesPerMillisecond);
  ASSERT_TRUE(t.b->mercury().switch_to(core::ExecMode::kPartialVirtual));
  ASSERT_TRUE(t.a->mercury().switch_to(core::ExecMode::kFullVirtual));
  vmm::MigrationConfig cfg;
  cfg.max_rounds = 6;
  cfg.stop_threshold_pages = 16;
  const auto stats = vmm::LiveMigration::run(
      t.a->mercury().hypervisor(), t.a->mercury().guest_vo().dom(),
      t.b->mercury().hypervisor(), cfg);
  ASSERT_TRUE(stats.success);
  EXPECT_GT(stats.rounds, 1u) << "a dirtying guest needs iterative pre-copy";
  EXPECT_GT(stats.pages_sent, stats.pages_total) << "some pages resent";
  EXPECT_LT(stats.downtime_cycles, stats.total_cycles / 10)
      << "downtime must be a small fraction of total migration time";
}

#if MERCURY_OBS_ENABLED
/// Where the last migration's stop-and-copy began, read from the event ring.
std::optional<hw::Cycles> last_stopcopy_begin() {
  std::optional<hw::Cycles> begin;
  for (const obs::Event& e : obs::event_ring().events())
    if (e.type == obs::EventType::kPhaseBegin &&
        std::string_view(e.name) == "migrate.stopcopy")
      begin = e.begin;
  return begin;
}
#endif

TEST(MigrationTest, DowntimeRunsUntilTheReceiverHasAdmittedTheGuest) {
#if !MERCURY_OBS_ENABLED
  GTEST_SKIP() << "reads the stop-and-copy start from the event ring";
#else
  // The guest stays frozen while the receiver rebuilds its page info and
  // protects its tables, so the downtime ends on the receiver's CPU 0 clock
  // after admission, not on the sender's clock when the copy ends.
  TwoNodes t;
  ASSERT_TRUE(t.b->mercury().switch_to(core::ExecMode::kPartialVirtual));
  ASSERT_TRUE(t.a->mercury().switch_to(core::ExecMode::kFullVirtual));
  const auto stats = vmm::LiveMigration::run(
      t.a->mercury().hypervisor(), t.a->mercury().guest_vo().dom(),
      t.b->mercury().hypervisor());
  ASSERT_TRUE(stats.success);
  const hw::Cycles admitted = t.b->machine().cpu(0).now();
  const std::optional<hw::Cycles> stopcopy_start = last_stopcopy_begin();
  ASSERT_TRUE(stopcopy_start.has_value());
  EXPECT_EQ(stats.downtime_cycles, admitted - *stopcopy_start);
#endif
}

TEST(MigrationTest, TotalEndsWhereTheDowntimeEnds) {
#if !MERCURY_OBS_ENABLED
  GTEST_SKIP() << "reads the stop-and-copy start from the event ring";
#else
  // The migration is over when the receiver has admitted the guest, on the
  // same receiver clock the downtime ends on: the total is the pre-copy
  // span plus the downtime.
  TwoNodes t;
  ASSERT_TRUE(t.b->mercury().switch_to(core::ExecMode::kPartialVirtual));
  ASSERT_TRUE(t.a->mercury().switch_to(core::ExecMode::kFullVirtual));
  const hw::Cycles t0 = t.a->machine().cpu(0).now();
  const auto stats = vmm::LiveMigration::run(
      t.a->mercury().hypervisor(), t.a->mercury().guest_vo().dom(),
      t.b->mercury().hypervisor());
  ASSERT_TRUE(stats.success);
  const std::optional<hw::Cycles> stopcopy_start = last_stopcopy_begin();
  ASSERT_TRUE(stopcopy_start.has_value());
  EXPECT_EQ(stats.total_cycles,
            stats.downtime_cycles + (*stopcopy_start - t0));
#endif
}

TEST(MigrationTest, SourceFramesAreFreedAfterMigration) {
  TwoNodes t;
  const std::size_t free_before = t.a->machine().frames().frames_free();
  const auto ev = cluster::evacuate_arc(*t.a, *t.b);
  ASSERT_TRUE(ev.success);
  EXPECT_GT(t.a->machine().frames().frames_free(), free_before);
}

TEST(CheckpointTest, RestoreIsBitExact) {
  hw::MachineConfig mc;
  mc.mem_kb = 192 * 1024;
  hw::Machine machine(mc);
  core::MercuryConfig cfg;
  cfg.kernel_frames = (64ull * 1024 * 1024) / hw::kPageSize;
  core::Mercury mercury(machine, cfg);

  mercury.kernel().spawn("idle", [](Sys& s) -> Sub<void> {
    for (;;) co_await s.sleep_us(50'000.0);
  });
  mercury.kernel().run_for(5 * hw::kCyclesPerMillisecond);

  // Work attached throughout: detach flips page-table writability bits in
  // the direct map, so bit-exactness is defined against the attached image.
  ASSERT_TRUE(mercury.switch_to(core::ExecMode::kPartialVirtual));
  hw::Cpu& cpu = machine.cpu(0);
  auto snap = vmm::Checkpointer::take(cpu, mercury.hypervisor(),
                                      mercury.driver_vo().dom());
  EXPECT_GT(snap.bytes(), 0u);
  EXPECT_TRUE(vmm::Checkpointer::matches(mercury.hypervisor(), snap));

  // Scribble over guest memory, then restore.
  machine.memory().write_u32(hw::addr_of(mercury.kernel().base_pfn() + 100) + 4,
                             0xBADBAD);
  EXPECT_FALSE(vmm::Checkpointer::matches(mercury.hypervisor(), snap));
  vmm::Checkpointer::restore(cpu, mercury.hypervisor(), snap);
  EXPECT_TRUE(vmm::Checkpointer::matches(mercury.hypervisor(), snap));
  ASSERT_TRUE(mercury.switch_to(core::ExecMode::kNative))
      << "the VMM detaches after the restore";
}

TEST(CheckpointTest, SnapshotCapturesVcpuState) {
  hw::MachineConfig mc;
  mc.mem_kb = 160 * 1024;
  hw::Machine machine(mc);
  core::MercuryConfig cfg;
  cfg.kernel_frames = (48ull * 1024 * 1024) / hw::kPageSize;
  core::Mercury mercury(machine, cfg);
  ASSERT_TRUE(mercury.switch_to(core::ExecMode::kPartialVirtual));
  const vmm::Snapshot snap = vmm::Checkpointer::take(
      machine.cpu(0), mercury.hypervisor(), mercury.driver_vo().dom());
  ASSERT_TRUE(mercury.switch_to(core::ExecMode::kNative));
  EXPECT_EQ(snap.vcpus.size(), machine.num_cpus());
}

}  // namespace
}  // namespace mercury::testing
