// The cluster observability plane end-to-end, through the public
// ClusterSoak surface: a switch wave renders as one causally-linked trace
// across nodes, the time-series document is byte-identical for identical
// params, the engine profiler attributes wall time to engine work classes,
// and the fleet verdict carries per-node sections.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "cluster/soak.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "tests/json_checker.hpp"

namespace mercury::testing {
namespace {

// Small fleet, two waves: enough for one attach wave and one detach wave
// while keeping the sim short.
cluster::ClusterSoakParams small_params() {
  cluster::ClusterSoakParams p;
  p.nodes = 3;
  p.cpus_per_node = 2;
  p.waves = 2;
  p.seed = 42;
  p.wave_interval_ms = 2.0;
  p.sample_interval_ms = 0.5;
  p.sample_capacity = 64;
  return p;
}

#if MERCURY_OBS_ENABLED

TEST(ClusterObs, SwitchWaveFormsOneCausalTraceAcrossNodes) {
  obs::EventRing& buf = obs::event_ring();
  buf.clear();

  cluster::ClusterSoak soak(small_params());
  ASSERT_TRUE(soak.run());

  const auto evs = buf.events();
  // Each wave records a root "cluster.wave" event carrying the wave's
  // trace id. Use the newest wave: it is the least likely to have lost
  // children to ring wrap.
  const obs::Event* wave = nullptr;
  for (const auto& e : evs)
    if (std::strcmp(e.name, "cluster.wave") == 0) wave = &e;
  ASSERT_NE(wave, nullptr);
  const std::uint64_t trace = wave->trace_id;
  ASSERT_NE(trace, 0u);

  // The per-node fabric message spans must share that trace id and be
  // attributed to distinct cluster nodes (Chrome pids).
  std::set<std::uint32_t> msg_nodes;
  std::set<std::uint64_t> msg_spans;
  for (const auto& e : evs)
    if (std::strcmp(e.name, "fabric.msg.switch") == 0 && e.trace_id == trace) {
      msg_nodes.insert(e.node);
      msg_spans.insert(e.span_id);
    }
  EXPECT_GE(msg_nodes.size(), 2u)
      << "one wave should span >= 2 distinct nodes";

  // The engine's commit span resolves asynchronously (submit -> interrupt
  // -> commit), yet must still link beneath the wave's message span via
  // the captured SpanContext.
  bool commit_linked = false;
  for (const auto& e : evs) {
    const bool is_commit = std::strcmp(e.name, "switch.attach") == 0 ||
                           std::strcmp(e.name, "switch.detach") == 0;
    if (is_commit && e.trace_id == trace && msg_spans.count(e.parent_id) > 0)
      commit_linked = true;
  }
  EXPECT_TRUE(commit_linked)
      << "no commit span chained to a fabric.msg.switch span of trace "
      << trace;

  const std::string json = obs::chrome_trace_json(buf);
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  buf.clear();
}

TEST(ClusterObs, ProfilerAttributesEngineWorkDuringSoak) {
  obs::EngineProfiler& prof = obs::profiler();
  prof.reset();
  prof.set_enabled(true);

  cluster::ClusterSoak soak(small_params());
  ASSERT_TRUE(soak.run());
  prof.set_enabled(false);

  const auto snap = prof.snapshot();
  std::uint64_t commit_count = 0;
  std::uint64_t kernel_step_count = 0;
  for (const auto& b : snap) {
    if (b.name == "switch.commit") commit_count = b.count;
    if (b.name.rfind("kernel.step.", 0) == 0) kernel_step_count += b.count;
  }
  // Every committed switch runs under the switch.commit bucket; the kernel
  // step branches dominate event counts.
  EXPECT_GT(commit_count, 0u);
  EXPECT_GT(kernel_step_count, commit_count);

  const std::string json = obs::profile_json();
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"schema\":\"mercury.profile.v1\""), std::string::npos);
  EXPECT_NE(json.find("switch.commit"), std::string::npos);
  prof.reset();
}

#endif  // MERCURY_OBS_ENABLED

// Determinism holds in both obs configurations: the sampled series read
// run-owned state only, so two fresh runs with identical params emit a
// byte-identical mercury.timeseries.v1 document.
TEST(ClusterObs, TimeseriesIsByteIdenticalAcrossRuns) {
  std::string first, second;
  {
    cluster::ClusterSoak soak(small_params());
    ASSERT_TRUE(soak.run());
    first = soak.timeseries_json();
  }
  {
    cluster::ClusterSoak soak(small_params());
    ASSERT_TRUE(soak.run());
    second = soak.timeseries_json();
  }
  EXPECT_EQ(first, second);
  EXPECT_TRUE(JsonChecker(first).ok()) << first.substr(0, 400);
  EXPECT_NE(first.find("\"schema\":\"mercury.timeseries.v1\""),
            std::string::npos);
  // Per-node series carry the node label; fleet series an empty one.
  EXPECT_NE(first.find("node=n0"), std::string::npos);
  EXPECT_NE(first.find("fleet.inflight"), std::string::npos);
}

TEST(ClusterObs, FleetReportCarriesPerNodeSections) {
  const cluster::ClusterSoakParams p = small_params();
  cluster::ClusterSoak soak(p);
  ASSERT_TRUE(soak.run());

  const cluster::SoakReport r = soak.report();
  ASSERT_EQ(r.nodes.size(), p.nodes);
  std::uint64_t committed = 0;
  std::set<std::string> names;
  for (const auto& n : r.nodes) {
    EXPECT_FALSE(n.name.empty());
    names.insert(n.name);
    EXPECT_EQ(n.submitted, p.waves);
    EXPECT_GE(n.availability, 0.0);
    EXPECT_LE(n.availability, 1.0);
    EXPECT_GT(n.span_cycles, 0u);
    committed += n.committed;
    // Per-node pause rollups: every interval attributed, and a node that
    // recorded intervals names its worst cause.
    EXPECT_EQ(n.pause_unattributed, 0u) << n.name;
    EXPECT_FALSE(n.pause_worst_cause.empty()) << n.name;
#if MERCURY_OBS_ENABLED
    EXPECT_GT(n.pause_intervals, 0u) << n.name;
    EXPECT_NE(n.pause_worst_cause, "none") << n.name;
#endif
  }
  EXPECT_EQ(names.size(), p.nodes);  // distinct node names
  EXPECT_EQ(committed, r.committed);
  EXPECT_EQ(r.pause_unattributed, 0u);  // fleet rollup of the node gates

  const std::string json = cluster::soak_report_json(r);
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"pause_worst_cause\""), std::string::npos);
}

}  // namespace
}  // namespace mercury::testing
