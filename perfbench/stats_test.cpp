// Tests for the benchmark's own arithmetic, and for the digest that proves a
// pass reproduces its simulated outputs exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4, 1, 3, 2, 5};  // sorted: 1 2 3 4 5
  EXPECT_DOUBLE_EQ(percentile(v, 0.5).value, 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.9).value, 4.6);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0).value, 5.0);
  EXPECT_EQ(percentile(v, 0.9).samples, 5u);
}

TEST(Percentile, EmptyAndSingleSample) {
  EXPECT_EQ(percentile({}, 0.5).samples, 0u);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5).value, 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.9).value, 7.0);
  EXPECT_EQ(percentile({7.0}, 0.9).samples, 1u);
  EXPECT_DOUBLE_EQ(median({2.0, 4.0}), 3.0);
}

TEST(Percentile, CountsSamplesBeyondTheTail) {
  std::vector<double> v;
  for (int i = 1; i <= 120; ++i) v.push_back(i);
  // p90 of 1..120 is 108.1: 12 samples (109..120) lie beyond it.
  EXPECT_NEAR(percentile(v, 0.9).value, 108.1, 1e-9);
  EXPECT_EQ(samples_beyond(v, 0.9), 12u);
  EXPECT_EQ(samples_beyond({1, 1, 1}, 0.9), 0u);
}

TEST(GeomeanOverhead, IsGeometricMeanMinusOneInPercent) {
  EXPECT_NEAR(geomean_overhead_pct({1.1, 1.1, 1.1}), 10.0, 1e-9);
  EXPECT_NEAR(geomean_overhead_pct({2.0, 0.5}), 0.0, 1e-9);
  EXPECT_NEAR(geomean_overhead_pct({1.0, 1.21}), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(geomean_overhead_pct({}), 0.0);
}

TEST(FailFrac, FailedOverAttempted) {
  EXPECT_DOUBLE_EQ(fail_frac(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(fail_frac(0, 40), 0.0);
  EXPECT_DOUBLE_EQ(fail_frac(3, 120), 0.025);
}

TEST(SelfTime, SubtractsMergedChildIntervals) {
  std::vector<Span> spans = {
      {1, 0, 1, "cluster", "arc", 0, 100},
      {2, 1, 1, "core", "switch", 10, 30},
      {3, 1, 1, "core", "switch", 20, 50},   // overlaps the previous child
      {4, 1, 1, "kernel", "run", 90, 120},   // clipped to the parent's end
      {5, 2, 1, "kernel", "run", 12, 14},    // grandchild: only span 2 loses it
      {6, 0, 2, "workloads", "op", 200, 260},
  };
  const auto self = self_seconds_by_layer(spans);
  EXPECT_NEAR(self.at("cluster"), 50e-9, 1e-15);  // 100 - (40 + 10)
  EXPECT_NEAR(self.at("core"), (18 + 30) * 1e-9, 1e-15);
  EXPECT_NEAR(self.at("kernel"), (30 + 2) * 1e-9, 1e-15);
  EXPECT_NEAR(self.at("workloads"), 60e-9, 1e-15);
}

TEST(Digest, DependsOnEveryBitAndOnOrder) {
  Digest a, b, c, d;
  a.add(1.0);
  a.add(std::uint64_t{2});
  b.add(1.0);
  b.add(std::uint64_t{2});
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.hex().size(), 16u);
  c.add(std::uint64_t{2});
  c.add(1.0);
  EXPECT_NE(a.value(), c.value());
  d.add(std::nextafter(1.0, 2.0));
  d.add(std::uint64_t{2});
  EXPECT_NE(a.value(), d.value());
  Digest z0, z1;
  z0.add(0.0);
  z1.add(-0.0);
  EXPECT_NE(z0.value(), z1.value());
}

TEST(Digest, GuestSteadyPassRepeatsExactly) {
  const PassResult first = run_guest_steady_pass(7);
  const PassResult second = run_guest_steady_pass(7);
  EXPECT_TRUE(first.errors.empty());
  EXPECT_EQ(first.digest.value(), second.digest.value());
  EXPECT_EQ(first.sim, second.sim);
  EXPECT_GT(first.sim.at("mn_overhead_pct"), 0.0);
}

}  // namespace
}  // namespace perfbench
