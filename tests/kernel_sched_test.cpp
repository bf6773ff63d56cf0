// Scheduling, pipes, sleeping, preemption, SMP behaviour.
#include "tests/kernel_fixture.hpp"

namespace mercury::testing {
namespace {

using kernel::Pid;
using kernel::Sub;
using kernel::Sys;

using SchedTest = KernelFixture;

TEST_F(SchedTest, SleepAdvancesAtLeastRequestedTime) {
  hw::Cycles t0 = 0, t1 = 0;
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    t0 = s.cpu().now();
    co_await s.sleep_us(5000.0);
    t1 = s.cpu().now();
  }));
  EXPECT_GE(t1 - t0, hw::us_to_cycles(5000.0));
}

TEST_F(SchedTest, PipeTransfersAndBlocks) {
  std::string order;
  const int p = k->pipe_create();
  k->spawn("reader", [&, p](Sys& s) -> Sub<void> {
    const int rfd = s.adopt_pipe(p, true);
    const std::size_t n = co_await s.read_fd(rfd, 10);
    order += 'R';
    order += std::to_string(n);
    co_return;
  });
  k->spawn("writer", [&, p](Sys& s) -> Sub<void> {
    const int wfd = s.adopt_pipe(p, false);
    co_await s.sleep_us(500.0);  // ensure the reader blocks first
    order += "W";
    co_await s.write_fd(wfd, 10);
    co_return;
  });
  EXPECT_TRUE(k->run_until([&] { return order.size() >= 3; },
                           100 * hw::kCyclesPerMillisecond));
  EXPECT_EQ(order, "WR10");
}

TEST_F(SchedTest, PipeEofOnWriterClose) {
  std::size_t got = 99;
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const auto [r, w] = s.pipe();
    s.close(w);  // no writer left
    got = co_await s.read_fd(r, 10);
  }));
  EXPECT_EQ(got, 0u) << "read on a widowed pipe must return EOF";
}

TEST_F(SchedTest, PipeCapacityBlocksWriter) {
  bool writer_done = false;
  const int p = k->pipe_create();
  k->spawn("big-writer", [&, p](Sys& s) -> Sub<void> {
    const int wfd = s.adopt_pipe(p, false);
    co_await s.write_fd(wfd, 200 * 1024);  // 3x capacity
    writer_done = true;
    co_return;
  });
  k->run_for(5 * hw::kCyclesPerMillisecond);
  EXPECT_FALSE(writer_done) << "writer must stall on a full pipe";
  k->spawn("drainer", [&, p](Sys& s) -> Sub<void> {
    const int rfd = s.adopt_pipe(p, true);
    std::size_t total = 0;
    while (total < 200 * 1024) {
      const std::size_t n = co_await s.read_fd(rfd, 64 * 1024);
      if (n == 0) break;
      total += n;
    }
    co_return;
  });
  EXPECT_TRUE(k->run_until([&] { return writer_done; },
                           200 * hw::kCyclesPerMillisecond));
}

TEST_F(SchedTest, TimesliceSharingBetweenComputeTasks) {
  hw::Cycles done_a = 0, done_b = 0;
  k->spawn("a", [&](Sys& s) -> Sub<void> {
    co_await s.compute_us(40'000.0);
    done_a = s.cpu().now();
  }, 64, /*affinity=*/0);
  k->spawn("b", [&](Sys& s) -> Sub<void> {
    co_await s.compute_us(40'000.0);
    done_b = s.cpu().now();
  }, 64, /*affinity=*/0);
  EXPECT_TRUE(k->run_until([&] { return done_a && done_b; },
                           1000 * hw::kCyclesPerMillisecond));
  // With preemptive sharing both finish around 80 ms, not 40 and 80.
  const double ms_a = hw::cycles_to_us(done_a) / 1000.0;
  const double ms_b = hw::cycles_to_us(done_b) / 1000.0;
  EXPECT_GT(ms_a, 50.0);
  EXPECT_GT(ms_b, 50.0);
}

TEST_F(SchedTest, ContextSwitchesCounted) {
  const auto before = k->stats().context_switches;
  const int p = k->pipe_create();
  int rounds_done = 0;
  k->spawn("ping", [&, p](Sys& s) -> Sub<void> {
    const int rfd = s.adopt_pipe(p, true);
    for (int i = 0; i < 5; ++i) {
      co_await s.read_fd(rfd, 1);
      ++rounds_done;
    }
    co_return;
  });
  k->spawn("pong", [&, p](Sys& s) -> Sub<void> {
    const int wfd = s.adopt_pipe(p, false);
    for (int i = 0; i < 5; ++i) {
      co_await s.write_fd(wfd, 1);
      co_await s.yield();
    }
    co_return;
  });
  EXPECT_TRUE(k->run_until([&] { return rounds_done == 5; },
                           100 * hw::kCyclesPerMillisecond));
  EXPECT_GT(k->stats().context_switches, before + 5);
}

TEST_F(SchedTest, TimerTicksAccumulate) {
  run_task([](Sys& s) -> Sub<void> { co_await s.compute_us(50'000.0); });
  // 50 ms at 100 Hz = ~5 ticks.
  EXPECT_GE(k->stats().timer_ticks, 4u);
}

TEST_F(SchedTest, RunForAdvancesIdleClock) {
  const hw::Cycles before = k->earliest_cpu_time();
  k->run_for(30 * hw::kCyclesPerMillisecond);
  EXPECT_GE(k->earliest_cpu_time() - before, 30 * hw::kCyclesPerMillisecond);
}

TEST_F(SchedTest, SoftwareTimersFireInOrder) {
  std::string order;
  const hw::Cycles now = k->machine().cpu(0).now();
  k->add_timer(now + 2 * hw::kCyclesPerMillisecond, [&] { order += "b"; });
  k->add_timer(now + 1 * hw::kCyclesPerMillisecond, [&] { order += "a"; });
  k->add_timer(now + 3 * hw::kCyclesPerMillisecond, [&] { order += "c"; });
  k->run_for(10 * hw::kCyclesPerMillisecond);
  EXPECT_EQ(order, "abc");
}

class SmpSchedTest : public SmpKernelFixture {};

TEST_F(SmpSchedTest, TasksSpreadAcrossCpus) {
  bool a_done = false, b_done = false;
  std::uint32_t cpu_a = 99, cpu_b = 99;
  k->spawn("a", [&](Sys& s) -> Sub<void> {
    co_await s.compute_us(20'000.0);
    cpu_a = s.task().last_cpu;
    a_done = true;
  });
  k->spawn("b", [&](Sys& s) -> Sub<void> {
    co_await s.compute_us(20'000.0);
    cpu_b = s.task().last_cpu;
    b_done = true;
  });
  EXPECT_TRUE(k->run_until([&] { return a_done && b_done; },
                           500 * hw::kCyclesPerMillisecond));
  EXPECT_NE(cpu_a, cpu_b) << "two compute tasks should run in parallel";
  // Parallel execution: both finish in ~20 ms of simulated time, not 40.
  EXPECT_LT(hw::cycles_to_us(k->earliest_cpu_time()) / 1000.0, 35.0);
}

TEST_F(SmpSchedTest, SmpOpsCostMoreThanUp) {
  // The same fork is dearer on the SMP build (lock/cacheline taxes).
  MiniKernel up(1);
  auto fork_cost = [](MiniKernel& f) {
    hw::Cycles cost = 0;
    f.run_task([&](Sys& s) -> Sub<void> {
      const auto va = s.mmap(64 * hw::kPageSize, true);
      s.touch_pages(va, 64, true);
      const hw::Cycles t0 = s.cpu().now();
      const Pid c = s.fork([](Sys& cs) -> Sub<void> {
        cs.exit(0);
        co_return;
      });
      co_await s.wait_pid(c);
      cost = s.cpu().now() - t0;
    });
    return cost;
  };
  const hw::Cycles up_cost = fork_cost(up);
  const hw::Cycles smp_cost = fork_cost(env_);
  EXPECT_GT(smp_cost, up_cost);
}

}  // namespace
}  // namespace mercury::testing
