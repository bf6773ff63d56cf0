// The repository benchmark: one command, three workloads, both clocks.
//
//   perfbench --workload <guest-steady|switch-churn|depend-arcs>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --list-metrics
//
// A run repeats identical passes (fresh machines each) until --seconds have
// elapsed. The first pass warms the host (allocator, lazily built registry
// instruments) and is left out of every host-clock figure. Host metrics are
// medians over the remaining passes; simulated metrics are deterministic per
// seed, and every pass must reproduce the same digest over them. With
// --trace 1 the passes alternate untraced/traced: the traced ones record
// spans and the engine profiler and give the per-layer metrics, and the gap
// between the two kinds is the tracing overhead.
//
// Human-readable lines come first; the last line is `RESULT <json>`.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "obs/postmortem.hpp"
#include "obs/profiler.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* moves;     // end-to-end metric this one should move ...
  const char* workload;  // ... on this workload
};

// End-to-end metrics: reported by every workload, from untraced passes.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower", "", ""},
    {"host_ops_per_s", "1/s", "higher", "", ""},
    {"peak_rss_mb", "MB", "lower", "", ""},
};

constexpr const char* kGS = "guest-steady";
constexpr const char* kSC = "switch-churn";
constexpr const char* kDA = "depend-arcs";

// Per-layer metrics, every one reported by every workload (0 where the
// workload does not exercise the layer). The simulated headline figures
// (overheads, switch and arc latencies) are here too: they are
// deterministic per seed and compared exactly through the digest.
constexpr MetricDef kPerLayer[] = {
    // Simulated headline figures.
    {"mn_overhead_pct", "%", "lower", "", kGS},
    {"mv_overhead_pct", "%", "lower", "", kGS},
    {"attach_ms_p50", "ms", "lower", "", "switch-churn,depend-arcs"},
    {"attach_ms_p90", "ms", "lower", "", "switch-churn,depend-arcs"},
    {"detach_ms_p50", "ms", "lower", "", "switch-churn,depend-arcs"},
    {"detach_ms_p90", "ms", "lower", "", "switch-churn,depend-arcs"},
    {"window_ms_p50", "ms", "lower", "", kDA},
    {"window_ms_p90", "ms", "lower", "", kDA},
    {"downtime_ms_p50", "ms", "lower", "", kDA},
    {"downtime_ms_p90", "ms", "lower", "", kDA},
    {"fail_frac", "ratio", "lower", "", kDA},
    // hw
    {"hw.tlb.hits", "count", "higher", "mn_overhead_pct,mv_overhead_pct", kGS},
    {"hw.tlb.misses", "count", "lower", "mn_overhead_pct,mv_overhead_pct", kGS},
    {"hw.tlb.hit_ratio", "ratio", "higher", "mn_overhead_pct,mv_overhead_pct", kGS},
    {"hw.tlb.flushes", "count", "lower", "mn_overhead_pct,mv_overhead_pct", kGS},
    {"hw.machine_build_host_s", "s", "lower", "setup_s", kSC},
    // kernel
    {"kernel.syscalls", "count", "lower", "host_ops_per_s,mn_overhead_pct", kGS},
    {"kernel.page_faults", "count", "lower", "host_ops_per_s,mn_overhead_pct", kGS},
    {"kernel.cow_breaks", "count", "lower", "host_ops_per_s,mn_overhead_pct", kGS},
    {"kernel.context_switches", "count", "lower", "host_ops_per_s,mn_overhead_pct", kGS},
    {"kernel.interrupts", "count", "lower", "host_ops_per_s,mn_overhead_pct", kGS},
    {"kernel.timer_ticks", "count", "lower", "host_ops_per_s,mn_overhead_pct", kGS},
    {"kernel.selector_fixups", "count", "lower", "detach_ms_p90", kSC},
    {"kernel.fs.block_cache_hit_ratio", "ratio", "higher", "host_ops_per_s", kGS},
    {"kernel.step_host_s.interrupt", "s", "lower", "host_ops_per_s", kGS},
    {"kernel.step_host_s.timer", "s", "lower", "host_ops_per_s", kGS},
    {"kernel.step_host_s.task", "s", "lower", "host_ops_per_s", kGS},
    {"kernel.step_host_s.idle", "s", "lower", "host_ops_per_s", kGS},
    // vmm
    {"vmm.hypercalls", "count", "lower", "mv_overhead_pct", kGS},
    {"vmm.traps_dispatched", "count", "lower", "mv_overhead_pct", kGS},
    {"vmm.pte_validations", "count", "lower", "mv_overhead_pct", kGS},
    {"vmm.emulated_pte_writes", "count", "lower", "mv_overhead_pct", kGS},
    {"vmm.cr3_switches", "count", "lower", "mv_overhead_pct", kGS},
    {"vmm.pins", "count", "lower", "mv_overhead_pct", kGS},
    {"vmm.page_info.frames_reconstructed", "count", "lower", "attach_ms_p50,attach_ms_p90", kSC},
    {"vmm.page_info.tables_revalidated", "count", "lower", "attach_ms_p50,attach_ms_p90", kSC},
    {"vmm.page_info.table_validations_skipped", "count", "higher", "attach_ms_p50,attach_ms_p90", kSC},
    {"vmm.tlb_batch_shootdowns", "count", "lower", "attach_ms_p50,attach_ms_p90", kSC},
    {"vmm.migrate.pages_sent", "count", "lower", "downtime_ms_p90", kDA},
    {"vmm.migrate.pages_total", "count", "higher", "downtime_ms_p90", kDA},
    {"vmm.migrate.useful_ratio", "ratio", "higher", "downtime_ms_p90", kDA},
    {"vmm.migrate.precopy_rounds", "count", "lower", "downtime_ms_p90", kDA},
    // core
    {"core.switch.attaches", "count", "higher", "attach_ms_p50,attach_ms_p90", kSC},
    {"core.switch.detaches", "count", "higher", "detach_ms_p50,detach_ms_p90", kSC},
    {"core.switch.deferrals", "count", "lower", "attach_ms_p90", kSC},
    {"core.switch.rollbacks", "count", "lower", "attach_ms_p90", kSC},
    {"core.switch.validation_aborts", "count", "lower", "attach_ms_p90", kSC},
    {"core.switch.warm_attaches", "count", "higher", "attach_ms_p50", kSC},
    {"core.switch.warm_fallbacks", "count", "lower", "attach_ms_p90", kSC},
    {"core.switch.warm_ratio", "ratio", "higher", "attach_ms_p50,attach_ms_p90", kSC},
    {"core.switch.dirty_frames_p50", "count", "lower", "attach_ms_p50", kSC},
    {"core.switch.frames_retained_p50", "count", "higher", "attach_ms_p50", kSC},
    {"core.switch.rendezvous_ms_p50", "ms", "lower", "attach_ms_p50", "depend-arcs,switch-churn"},
    {"core.switch.rendezvous_ms_p90", "ms", "lower", "attach_ms_p90", "depend-arcs,switch-churn"},
    {"core.switch.page_info_ms_p50", "ms", "lower", "attach_ms_p50", kSC},
    {"core.switch.page_info_ms_p90", "ms", "lower", "attach_ms_p90", kSC},
    {"core.switch.protection_ms_p50", "ms", "lower", "detach_ms_p50", kSC},
    {"core.switch.protection_ms_p90", "ms", "lower", "detach_ms_p90", kSC},
    {"core.switch.defer_wait_ms_p90", "ms", "lower", "attach_ms_p90", kSC},
    {"core.switch.max_pause_ms_p90", "ms", "lower", "attach_ms_p90", kSC},
    {"core.crew.utilization", "ratio", "higher", "attach_ms_p90", kSC},
    {"core.switch.host_ms_p50", "ms", "lower", "host_ops_per_s", kSC},
    {"core.switch.host_ms_p90", "ms", "lower", "host_ops_per_s", kSC},
    {"core.switch.commit_host_s", "s", "lower", "host_ops_per_s", kSC},
    {"core.supervisor.retries", "count", "lower", "fail_frac,window_ms_p90", kDA},
    {"core.supervisor.quarantines", "count", "lower", "fail_frac,window_ms_p90", kDA},
    {"core.fault.storm_fires", "count", "lower", "fail_frac,window_ms_p90", kDA},
    {"core.mercury_boot_host_s", "s", "lower", "setup_s", kSC},
    // cluster
    {"cluster.arc.attempts", "count", "lower", "fail_frac,window_ms_p90", kDA},
    {"cluster.arc.retries", "count", "lower", "fail_frac,window_ms_p90", kDA},
    {"cluster.arc.faults", "count", "lower", "fail_frac,window_ms_p90", kDA},
    {"cluster.arc.switch_retries", "count", "lower", "fail_frac,window_ms_p90", kDA},
    {"cluster.arc.quarantined", "count", "lower", "fail_frac,window_ms_p90", kDA},
    {"cluster.arc.rolled_back", "count", "lower", "fail_frac,window_ms_p90", kDA},
    {"cluster.arc.service_ms_p50", "ms", "lower", "window_ms_p50", kDA},
    {"cluster.arc.service_ms_p90", "ms", "lower", "window_ms_p90", kDA},
    {"cluster.pause.rendezvous_ms", "ms", "lower", "downtime_ms_p50,window_ms_p50", kDA},
    {"cluster.pause.stopcopy_ms", "ms", "lower", "downtime_ms_p90", kDA},
    {"cluster.pause.checkpoint_ms", "ms", "lower", "downtime_ms_p90", kDA},
    {"cluster.pause.backoff_ms", "ms", "lower", "window_ms_p90", kDA},
    {"cluster.pause.rollback_ms", "ms", "lower", "window_ms_p90", kDA},
    {"cluster.arc.host_ms_p50", "ms", "lower", "host_ops_per_s", kDA},
    {"cluster.arc.host_ms_p90", "ms", "lower", "host_ops_per_s", kDA},
    {"cluster.fabric_step_host_s", "s", "lower", "host_ops_per_s", kDA},
    {"cluster.node_create_host_s", "s", "lower", "setup_s", kDA},
    // workloads
    {"workloads.lmbench.fork.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.fork.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.exec.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.exec.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.sh.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.sh.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.ctx_2p0k.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.ctx_2p0k.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.ctx_16p16k.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.ctx_16p16k.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.ctx_16p64k.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.ctx_16p64k.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.mmap.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.mmap.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.prot_fault.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.prot_fault.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.page_fault.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.lmbench.page_fault.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.apps.osdb.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.apps.osdb.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.apps.dbench.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.apps.dbench.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.apps.kbuild.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.apps.kbuild.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.apps.ping.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.apps.ping.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.apps.iperf.mn_ratio.up", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.apps.iperf.mn_ratio.smp", "ratio", "lower", "mn_overhead_pct", kGS},
    {"workloads.host_ns_per_sim_us", "ns/us", "lower", "host_ops_per_s", kGS},
    {"workloads.sut_create_host_s", "s", "lower", "setup_s", kGS},
    {"workloads.paper_err_pct", "%", "lower", "", kGS},
    // Self time of the benchmark's spans around each layer's public calls.
    {"hw.span_self_s", "s", "lower", "setup_s", kSC},
    {"kernel.span_self_s", "s", "lower", "host_ops_per_s", kSC},
    {"core.span_self_s", "s", "lower", "host_ops_per_s", kSC},
    {"workloads.span_self_s", "s", "lower", "host_ops_per_s", kGS},
    {"cluster.span_self_s", "s", "lower", "host_ops_per_s", kDA},
    // obs
    {"obs.trace_overhead_pct", "%", "lower", "", ""},
    {"obs.spans_recorded", "count", "lower", "", ""},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <%s|%s|%s> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       perfbench --list-metrics\n",
               why, kGS, kSC, kDA);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0' && *v != '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && o.seconds > 0;
    } else if (a == "--trace") {
      have_trace = std::string_view(v) == "0" || std::string_view(v) == "1";
      o.trace = std::string_view(v) == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      usage("unknown argument");
    }
  }
  if (o.workload != kGS && o.workload != kSC && o.workload != kDA)
    usage("unknown workload");
  if (!have_seed || !have_seconds || !have_trace) usage("bad --seed, --seconds or --trace");
  return o;
}

void list_metrics() {
  const auto print = [](const char* kind, const MetricDef& m, bool last) {
    std::printf("  {\"kind\": \"%s\", \"name\": \"%s\", \"unit\": \"%s\", "
                "\"better\": \"%s\", \"moves\": \"%s\", \"workload\": \"%s\"}%s\n",
                kind, m.name, m.unit, m.better, m.moves, m.workload,
                last ? "" : ",");
  };
  std::printf("[\n");
  for (const MetricDef& m : kEndToEnd) print("end_to_end", m, false);
  for (std::size_t i = 0; i < std::size(kPerLayer); ++i)
    print("per_layer", kPerLayer[i], i + 1 == std::size(kPerLayer));
  std::printf("]\n");
}

double get(const Values& v, const std::string& k) {
  const auto it = v.find(k);
  return it == v.end() ? 0.0 : it->second;
}

std::vector<double> collect(const std::vector<const PassResult*>& passes,
                            double (*f)(const PassResult&)) {
  std::vector<double> out;
  for (const PassResult* p : passes) out.push_back(f(*p));
  return out;
}

/// Engine-profiler host seconds of the buckets the traced passes enable.
void store_profile(Values& host) {
  for (const mercury::obs::ProfBucket& b : mercury::obs::profiler().snapshot()) {
    const double s = static_cast<double>(b.wall_ns) * 1e-9;
    const std::string_view n = b.name;
    if (n.rfind("kernel.step.", 0) == 0)
      host["kernel.step_host_s." + std::string(n.substr(12))] += s;
    else if (n == "switch.commit")
      host["core.switch.commit_host_s"] += s;
    else if (n.rfind("fabric.step.", 0) == 0)
      host["cluster.fabric_step_host_s"] += s;
  }
}

void print_quantile_line(const PassResult& p, const std::string& base,
                         const char* unit) {
  const auto n = p.samples.find(base);
  if (n == p.samples.end()) return;
  const auto b = p.beyond.find(base);
  std::printf("  %-30s %12.6f %-3s (n=%zu per pass)\n", (base + "_p50").c_str(),
              get(p.sim, base + "_p50"), unit, n->second);
  std::printf("  %-30s %12.6f %-3s (n=%zu per pass, %zu beyond)\n",
              (base + "_p90").c_str(), get(p.sim, base + "_p90"), unit, n->second,
              b == p.beyond.end() ? 0 : b->second);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--list-metrics") {
    list_metrics();
    return 0;
  }
  const Options opt = parse(argc, argv);
  // Postmortem bundles from quarantined arcs land beside the binary.
  mercury::obs::default_postmortem_dir_beside_binary();

  PassResult (*run_pass)(std::uint64_t) =
      opt.workload == kGS   ? run_guest_steady_pass
      : opt.workload == kSC ? run_switch_churn_pass
                            : run_depend_arcs_pass;

  // Warm-up pass, then untraced (and, with --trace 1, alternating traced)
  // passes until the measuring time is spent: at least three measured
  // passes, or two of each kind when tracing.
  const std::size_t min_passes = opt.trace ? 5 : 4;
  std::vector<PassResult> passes;
  std::vector<bool> traced_pass;
  std::vector<Values> profiles, self_times;
  std::vector<double> spans_recorded;
  std::vector<Span> last_spans;
  const Clock::time_point start = Clock::now();
  while (passes.size() < min_passes || seconds_since(start) < opt.seconds) {
    const bool tracing = opt.trace && passes.size() % 2 == 0 && !passes.empty();
    recorder().set_enabled(tracing);
    recorder().clear();
    mercury::obs::profiler().set_enabled(tracing);
    mercury::obs::profiler().reset();
    passes.push_back(run_pass(opt.seed));
    traced_pass.push_back(tracing);
    if (tracing) {
      Values prof;
      store_profile(prof);
      profiles.push_back(prof);
      Values self;
      for (const auto& [layer, s] : self_seconds_by_layer(recorder().spans()))
        self[layer + ".span_self_s"] = s;
      self_times.push_back(self);
      spans_recorded.push_back(static_cast<double>(recorder().spans().size()));
      last_spans = recorder().spans();
    }
    if (!passes.back().errors.empty()) break;
  }
  recorder().set_enabled(false);
  mercury::obs::profiler().set_enabled(false);

  // --- correctness: outputs checked by each pass, digests across passes ---
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    for (const std::string& e : passes[i].errors)
      errors.push_back("pass " + std::to_string(i) + ": " + e);
    if (passes[i].digest.value() != passes[0].digest.value()) {
      std::string diff;
      for (const auto& [name, v] : passes[0].sim)
        if (get(passes[i].sim, name) != v) diff += " " + name;
      errors.push_back("pass " + std::to_string(i) + " digest " +
                       passes[i].digest.hex() + " differs from pass 0's " +
                       passes[0].digest.hex() + "; differing values:" +
                       (diff.empty() ? " none (per-operation samples)" : diff));
    }
    attempted += passes[i].attempted;
    failed += passes[i].failed;
  }

  // Host figures: every pass after the warm-up; untraced ones only for
  // times the tracing would perturb.
  std::vector<const PassResult*> measured, untraced, traced_only;
  for (std::size_t i = 1; i < passes.size(); ++i) {
    measured.push_back(&passes[i]);
    (traced_pass[i] ? traced_only : untraced).push_back(&passes[i]);
  }
  const PassResult& p0 = passes.front();
  Values e2e;
  e2e["setup_s"] = median(collect(untraced, [](const PassResult& p) { return p.setup_s; }));
  e2e["host_ops_per_s"] = median(collect(untraced, [](const PassResult& p) {
    return static_cast<double>(p.attempted) / p.timed_s;
  }));
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

  Values layer = p0.sim;
  layer["fail_frac"] = fail_frac(failed, attempted);
  layer["workloads.host_ns_per_sim_us"] =
      median(collect(untraced, [](const PassResult& p) {
        return p.sim_us > 0 ? p.timed_s * 1e9 / p.sim_us : 0.0;
      }));
  for (const auto& [name, v] : p0.host) {
    std::vector<double> xs;
    for (const PassResult* p : untraced) xs.push_back(get(p->host, name));
    layer[name] = median(xs);
  }
  if (opt.trace) {
    for (const std::vector<Values>* src : {&profiles, &self_times}) {
      Values names;
      for (const Values& v : *src)
        for (const auto& [n, x] : v) names[n] = 0;
      for (const auto& [n, unused] : names) {
        std::vector<double> xs;
        for (const Values& v : *src) xs.push_back(get(v, n));
        layer[n] = median(xs);
      }
    }
    const double t_traced =
        median(collect(traced_only, [](const PassResult& p) { return p.timed_s; }));
    const double t_plain =
        median(collect(untraced, [](const PassResult& p) { return p.timed_s; }));
    layer["obs.trace_overhead_pct"] = (t_traced / t_plain - 1.0) * 100.0;
    layer["obs.spans_recorded"] = median(spans_recorded);
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    if (!write_spans_json(last_spans, path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }

  // --- human-readable report ---
  std::printf("%s seed %llu: %zu passes (1 warm-up), %llu operations, %llu failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              passes.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("  digest %s\n", p0.digest.hex().c_str());
  std::printf("  %-30s %12.6f s   (median of %zu passes)\n", "setup_s",
              e2e["setup_s"], untraced.size());
  std::printf("  %-30s %12.3f 1/s (median of %zu passes, %llu ops each)\n",
              "host_ops_per_s", e2e["host_ops_per_s"], untraced.size(),
              static_cast<unsigned long long>(p0.attempted));
  std::printf("  %-30s %12.1f MB\n", "peak_rss_mb", e2e["peak_rss_mb"]);
  std::printf("  %-30s %12.6f     (%llu of %llu)\n", "fail_frac",
              layer["fail_frac"], static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (opt.workload == kGS) {
    for (const char* m : {"mn_overhead_pct", "mv_overhead_pct", "workloads.paper_err_pct"})
      std::printf("  %-30s %12.4f %%   (over %zu values)\n",
                  m == std::string_view("workloads.paper_err_pct") ? "paper_err_pct" : m,
                  get(p0.sim, m), p0.samples.at(m));
  } else {
    print_quantile_line(p0, "attach_ms", "ms");
    print_quantile_line(p0, "detach_ms", "ms");
    if (opt.workload == kDA) {
      print_quantile_line(p0, "window_ms", "ms");
      print_quantile_line(p0, "downtime_ms", "ms");
    }
    print_quantile_line(p0, "core.switch.rendezvous_ms", "ms");
    std::printf("  %-30s %12.4f     (rendezvous p50 / attach p50)\n",
                "rendezvous share", get(p0.sim, "core.switch.rendezvous_ms_p50") /
                                        get(p0.sim, "attach_ms_p50"));
    if (opt.workload == kSC)
      std::printf("  %-30s %12.4f     (%g warm of %g attaches)\n", "warm share",
                  get(p0.sim, "core.switch.warm_ratio"),
                  get(p0.sim, "core.switch.warm_attaches"),
                  get(p0.sim, "core.switch.attaches"));
  }
  if (opt.trace) {
    std::printf("  layer self time per traced pass (s):");
    for (const char* l : {"hw", "kernel", "core", "workloads", "cluster"})
      std::printf(" %s %.4f", l, get(layer, std::string(l) + ".span_self_s"));
    std::printf("\n  obs.trace_overhead_pct %.2f %%\n", layer["obs.trace_overhead_pct"]);
  }
  for (const std::string& e : errors) std::printf("  ERROR %s\n", e.c_str());

  // --- machine-readable result ---
  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"digest\": \"" + p0.digest.hex() + "\", \"metrics\": {";
  const auto emit = [&](const MetricDef& m, double v, bool& first) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, std::isfinite(v) ? v : 0.0, m.unit);
    json += buf;
    first = false;
  };
  bool first = true;
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) emit(m, get(layer, m.name), first);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, e2e[m.name], first);
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return errors.empty() ? 0 : 1;
}
