// guest-steady: the paper's §7 evaluation. On each of the six systems, UP
// and 2-CPU, at paper scale (2 GB box, 900 MB kernel): the lmbench
// primitives of Tables 1/2, then OSDB-IR, dbench, kbuild and ping/iperf
// (Figs 3/4). Every machine is built, booted and (M-V, M-U) attached in
// set-up, so no mode switch happens in the timed loop: the hw, kernel, VO
// dispatch and hypercall-emulation layers do the work and the switch engine
// does none.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_apps_common.hpp"
#include "trace.hpp"
#include "workload.hpp"
#include "workloads/lmbench.hpp"

namespace perfbench {

namespace {

namespace wl = mercury::workloads;
using wl::Lmbench;
using wl::Sut;
using wl::SystemId;

constexpr std::size_t kSystems = std::size(wl::kAllSystems);
constexpr const char* kLmbenchRows[] = {
    "fork", "exec", "sh", "ctx_2p0k", "ctx_16p16k",
    "ctx_16p64k", "mmap", "prot_fault", "page_fault"};
constexpr const char* kAppRows[] = {"osdb", "dbench", "kbuild", "ping", "iperf"};
constexpr std::size_t kLmRows = std::size(kLmbenchRows);
constexpr std::size_t kApps = std::size(kAppRows);

/// One system at one CPU count. Costs are lower-is-better (latency in us,
/// or the inverse of a throughput); scores are the paper's higher-is-better
/// figures, used for the Fig 3/4 relative performance.
struct Cell {
  double lm_us[kLmRows] = {};
  double app_cost[kApps] = {};
  double app_score[kApps] = {};
};

std::size_t index_of(SystemId id) { return static_cast<std::size_t>(id); }

double paper_value(const mercury::bench::PaperRow& r, SystemId id) {
  const double v[] = {r.nl, r.mn, r.x0, r.mv, r.xu, r.mu};
  return v[index_of(id)];
}

double fig_value(const mercury::bench::FigReference& r, SystemId id) {
  const double v[] = {r.nl, r.mn, r.x0, r.mv, r.xu, r.mu};
  return v[index_of(id)];
}

std::unique_ptr<Sut> create_sut(SystemId id, std::size_t cpus,
                                std::uint64_t seed, double& create_s) {
  wl::SutParams p = mercury::bench::paper_params(cpus);
  p.seed = seed;
  const Clock::time_point t0 = Clock::now();
  auto sut = traced("workloads", "Sut::create", [&] { return Sut::create(id, p); });
  create_s += seconds_since(t0);
  return sut;
}

/// Time one workload driver call as one operation.
template <typename F>
auto timed_op(PassResult& r, const char* name, F&& f) {
  recorder().next_op();
  const Clock::time_point t0 = Clock::now();
  auto out = traced("workloads", name, std::forward<F>(f));
  r.timed_s += seconds_since(t0);
  ++r.attempted;
  return out;
}

/// Set up, measure and tear down one system at one CPU count.
Cell run_cell(PassResult& r, SystemId id, std::size_t cpus, std::uint64_t seed,
              LayerCounters& layers, double& create_s) {
  const Clock::time_point setup0 = Clock::now();
  auto lm = create_sut(id, cpus, seed, create_s);
  auto osdb = create_sut(id, cpus, seed, create_s);
  auto dbench = create_sut(id, cpus, seed, create_s);
  auto kbuild = create_sut(id, cpus, seed, create_s);
  // ping/iperf are single-stream, so the network rows always use one CPU
  // (as the Fig 3/4 benches do).
  auto net = create_sut(id, 1, seed, create_s);
  auto peer = traced("workloads", "PeerHost",
                     [] { return std::make_unique<wl::PeerHost>(); });
  peer->connect_to(net->machine());
  r.setup_s += seconds_since(setup0);

  Sut* suts[] = {lm.get(), osdb.get(), dbench.get(), kbuild.get(), net.get()};
  hw::Cycles sim0[std::size(suts)];
  std::uint64_t attaches0 = 0;
  for (std::size_t i = 0; i < std::size(suts); ++i) {
    sim0[i] = machine_now(suts[i]->machine());
    if (suts[i]->mercury() != nullptr)
      attaches0 += suts[i]->mercury()->engine().stats().attaches;
  }

  Cell c;
  kernel::Kernel& k = lm->kernel();
  const wl::LmbenchParams lp;
  c.lm_us[0] = timed_op(r, "Lmbench::fork_latency",
                        [&] { return Lmbench::fork_latency(k, lp); });
  c.lm_us[1] = timed_op(r, "Lmbench::exec_latency",
                        [&] { return Lmbench::exec_latency(k, lp); });
  c.lm_us[2] = timed_op(r, "Lmbench::sh_latency",
                        [&] { return Lmbench::sh_latency(k, lp); });
  c.lm_us[3] = timed_op(r, "Lmbench::ctx_latency",
                        [&] { return Lmbench::ctx_latency(k, 2, 0, lp); });
  c.lm_us[4] = timed_op(r, "Lmbench::ctx_latency",
                        [&] { return Lmbench::ctx_latency(k, 16, 16, lp); });
  c.lm_us[5] = timed_op(r, "Lmbench::ctx_latency",
                        [&] { return Lmbench::ctx_latency(k, 16, 64, lp); });
  c.lm_us[6] = timed_op(r, "Lmbench::mmap_latency",
                        [&] { return Lmbench::mmap_latency(k, lp); });
  c.lm_us[7] = timed_op(r, "Lmbench::prot_fault_latency",
                        [&] { return Lmbench::prot_fault_latency(k, lp); });
  c.lm_us[8] = timed_op(r, "Lmbench::page_fault_latency",
                        [&] { return Lmbench::page_fault_latency(k, lp); });

  // Application sizes as in the Fig 3/4 benches: SMP stepping is
  // host-slower, so the SMP figure runs smaller instances.
  const double scale = cpus > 1 ? 0.4 : 1.0;
  wl::OsdbParams op;
  op.queries = static_cast<int>(op.queries * scale);
  const double qps = timed_op(r, "Osdb::run", [&] {
    return wl::Osdb::run(osdb->kernel(), op).queries_per_sec;
  });
  wl::DbenchParams dp;
  dp.loops_per_client = std::max(12, static_cast<int>(dp.loops_per_client * scale));
  const double mbs = timed_op(r, "Dbench::run", [&] {
    return wl::Dbench::run(dbench->kernel(), dp).throughput_mb_s;
  });
  wl::KbuildParams kp;
  kp.translation_units = std::max(6, static_cast<int>(kp.translation_units * scale));
  const double build_s = timed_op(r, "Kbuild::run", [&] {
    return wl::Kbuild::run(kbuild->kernel(), kp).build_seconds;
  });
  wl::NetperfParams np;
  np.iperf_bytes = static_cast<std::size_t>(np.iperf_bytes * scale);
  const wl::NetperfResult nr = timed_op(r, "Netperf::run", [&] {
    return wl::Netperf::run(net->kernel(), *peer, np);
  });
  ++r.attempted;  // Netperf::run is two measurements: ping and iperf

  const double scores[kApps] = {qps, mbs, build_s > 0 ? 1.0 / build_s : 0.0,
                                nr.ping_rtt_us > 0 ? 1.0 / nr.ping_rtt_us : 0.0,
                                nr.tcp_mbit_s};
  for (std::size_t a = 0; a < kApps; ++a) {
    c.app_score[a] = scores[a];
    c.app_cost[a] = scores[a] > 0 ? 1.0 / scores[a] : 0.0;
  }

  // Outputs: every measurement must be a positive, finite number, and the
  // timed loop must not have switched any Mercury system's mode.
  const std::string where =
      std::string(wl::system_label(id)) + (cpus > 1 ? " SMP" : " UP");
  for (std::size_t i = 0; i < kLmRows; ++i)
    if (!(c.lm_us[i] > 0 && std::isfinite(c.lm_us[i]))) {
      ++r.failed;
      r.errors.push_back(where + ": lmbench " + kLmbenchRows[i] + " not positive");
    }
  for (std::size_t a = 0; a < kApps; ++a)
    if (!(c.app_cost[a] > 0 && std::isfinite(c.app_cost[a]))) {
      ++r.failed;
      r.errors.push_back(where + ": " + kAppRows[a] + " not positive");
    }
  if (nr.pings_lost != 0) {
    ++r.failed;
    r.errors.push_back(where + ": pings lost");
  }

  std::uint64_t attaches1 = 0;
  for (std::size_t i = 0; i < std::size(suts); ++i) {
    Sut& s = *suts[i];
    const hw::Cycles now = machine_now(s.machine());
    r.sim_us += static_cast<double>(now - sim0[i]) /
                static_cast<double>(hw::kCyclesPerMicrosecond);
    layers.add_machine(s.machine());
    layers.add_kernel(s.kernel());
    if (vmm::Hypervisor* hv = s.hypervisor()) layers.add_hypervisor(*hv);
    if (core::Mercury* m = s.mercury()) {
      layers.add_engine(m->engine());
      attaches1 += m->engine().stats().attaches;
      const core::ExecMode want =
          id == SystemId::kMN ? core::ExecMode::kNative
                              : core::ExecMode::kPartialVirtual;
      if (m->mode() != want) r.errors.push_back(where + ": wrong execution mode");
    }
  }
  if (attaches1 != attaches0)
    r.errors.push_back(where + ": a mode switch ran in the timed loop");

  r.digest.add(std::string_view(where));
  for (const double v : c.lm_us) r.digest.add(v);
  for (const double v : c.app_cost) r.digest.add(v);
  return c;
}

}  // namespace

PassResult run_guest_steady_pass(std::uint64_t seed) {
  PassResult r;
  const RegistryDelta registry;
  LayerCounters layers;
  double create_s = 0.0;

  constexpr std::size_t kCpuCounts[] = {1, 2};
  Cell cells[2][kSystems];
  for (std::size_t ci = 0; ci < 2; ++ci)
    for (const SystemId id : wl::kAllSystems)
      cells[ci][index_of(id)] = run_cell(r, id, kCpuCounts[ci], seed, layers, create_s);

  // Mercury's overhead against native Linux: cost ratios per row, geometric
  // mean over every lmbench row and application, UP and SMP.
  std::vector<double> mn_ratios, mv_ratios;
  for (std::size_t ci = 0; ci < 2; ++ci) {
    const char* cpu_tag = ci == 0 ? "up" : "smp";
    const Cell& nl = cells[ci][index_of(SystemId::kNL)];
    const Cell& mn = cells[ci][index_of(SystemId::kMN)];
    const Cell& mv = cells[ci][index_of(SystemId::kMV)];
    for (std::size_t i = 0; i < kLmRows; ++i) {
      mn_ratios.push_back(mn.lm_us[i] / nl.lm_us[i]);
      mv_ratios.push_back(mv.lm_us[i] / nl.lm_us[i]);
      r.sim[std::string("workloads.lmbench.") + kLmbenchRows[i] + ".mn_ratio." +
            cpu_tag] = mn_ratios.back();
    }
    for (std::size_t a = 0; a < kApps; ++a) {
      mn_ratios.push_back(mn.app_cost[a] / nl.app_cost[a]);
      mv_ratios.push_back(mv.app_cost[a] / nl.app_cost[a]);
      r.sim[std::string("workloads.apps.") + kAppRows[a] + ".mn_ratio." + cpu_tag] =
          mn_ratios.back();
    }
  }
  r.sim["mn_overhead_pct"] = geomean_overhead_pct(mn_ratios);
  r.sim["mv_overhead_pct"] = geomean_overhead_pct(mv_ratios);
  r.samples["mn_overhead_pct"] = mn_ratios.size();
  r.samples["mv_overhead_pct"] = mv_ratios.size();

  // Accuracy against the paper (reported only, never gated: constants are
  // not tuned toward the paper's figures). Tables 1/2 cells on all six
  // systems; Figs 3/4 relative performance on the five non-reference ones.
  double err_sum = 0.0;
  std::size_t err_n = 0;
  for (std::size_t ci = 0; ci < 2; ++ci) {
    const auto& table = ci == 0 ? mercury::bench::paper_table1()
                                : mercury::bench::paper_table2();
    const auto& fig = ci == 0 ? mercury::bench::fig3_reference()
                              : mercury::bench::fig4_reference();
    const Cell& nl = cells[ci][index_of(SystemId::kNL)];
    for (const SystemId id : wl::kAllSystems) {
      const Cell& c = cells[ci][index_of(id)];
      for (std::size_t i = 0; i < kLmRows; ++i) {
        const double p = paper_value(table[i], id);
        err_sum += std::fabs(c.lm_us[i] - p) / p;
        ++err_n;
      }
      if (id == SystemId::kNL) continue;
      for (std::size_t a = 0; a < kApps; ++a) {
        const double p = fig_value(fig[a], id);
        err_sum += std::fabs(c.app_score[a] / nl.app_score[a] - p) / p;
        ++err_n;
      }
    }
  }
  r.sim["workloads.paper_err_pct"] = err_sum / static_cast<double>(err_n) * 100.0;
  r.samples["workloads.paper_err_pct"] = err_n;

  layers.store(r.sim);
  registry.store(r.sim);
  r.host["workloads.sut_create_host_s"] = create_s;
  for (const auto& [name, v] : r.sim) {
    r.digest.add(std::string_view(name));
    r.digest.add(v);
  }
  return r;
}

}  // namespace perfbench
