#include "cluster/soak.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/fault_inject.hpp"
#include "core/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace mercury::cluster {

std::string soak_report_json(const SoakReport& r) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"mercury.soak.v1\",\n";
  os << "  \"seed\": " << r.seed << ",\n";
  os << "  \"cpus\": " << r.cpus << ",\n";
  os << "  \"planned_cycles\": " << r.planned_cycles << ",\n";
  os << "  \"storm\": {\"rate\": " << r.storm_rate
     << ", \"burst\": " << r.storm_burst << ", \"decay\": " << r.storm_decay
     << ", \"fires\": " << r.storm_fires
     << ", \"windows\": " << r.storm_windows << "},\n";
  os << "  \"requests\": {\"submitted\": " << r.submitted
     << ", \"committed\": " << r.committed
     << ", \"failed_deadline\": " << r.failed_deadline
     << ", \"failed_attempts\": " << r.failed_attempts
     << ", \"failed_quarantined\": " << r.failed_quarantined
     << ", \"cancelled\": " << r.cancelled
     << ", \"unresolved\": " << r.unresolved << "},\n";
  os << "  \"supervisor\": {\"attempts\": " << r.attempts
     << ", \"retries\": " << r.retries << ", \"backoffs\": " << r.backoffs
     << ", \"quarantines\": " << r.quarantines
     << ", \"recoveries\": " << r.recoveries << ", \"probes\": " << r.probes
     << ", \"final_health\": \"" << r.final_health << "\"},\n";
  os << "  \"engine\": {\"rollbacks\": " << r.rollbacks
     << ", \"cancels\": " << r.engine_cancels << "},\n";
  os << "  \"invariants\": {\"checks\": " << r.invariant_checks
     << ", \"violations\": " << r.invariant_violations << "},\n";
  os << "  \"availability\": {\"fraction\": " << r.availability
     << ", \"interruptions\": " << r.interruptions
     << ", \"downtime_cycles\": " << r.downtime_cycles
     << ", \"span_cycles\": " << r.span_cycles << "},\n";
  os << "  \"workload\": {\"ops\": " << r.workload_ops
     << ", \"bytes\": " << r.workload_bytes
     << ", \"corruptions\": " << r.workload_corruptions << "},\n";
  os << "  \"pause\": {\"intervals\": " << r.pause_intervals
     << ", \"unattributed\": " << r.pause_unattributed
     << ", \"worst_cycles\": " << r.pause_worst_cycles
     << ", \"worst_cause\": \"" << r.pause_worst_cause << "\"},\n";
  os << "  \"converged\": " << (r.converged ? "true" : "false") << ",\n";
  os << "  \"final_mode\": \"" << r.final_mode << "\",\n";
  if (!r.nodes.empty()) {
    os << "  \"nodes\": [";
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
      const NodeSoakStats& n = r.nodes[i];
      os << (i ? ",\n    {" : "\n    {") << "\"name\": \"" << n.name
         << "\", \"submitted\": " << n.submitted
         << ", \"committed\": " << n.committed << ", \"failed\": " << n.failed
         << ", \"retries\": " << n.retries
         << ", \"quarantines\": " << n.quarantines
         << ", \"availability\": " << n.availability
         << ", \"interruptions\": " << n.interruptions
         << ", \"downtime_cycles\": " << n.downtime_cycles
         << ", \"span_cycles\": " << n.span_cycles
         << ", \"pause_intervals\": " << n.pause_intervals
         << ", \"pause_unattributed\": " << n.pause_unattributed
         << ", \"pause_worst_cycles\": " << n.pause_worst_cycles
         << ", \"pause_worst_cause\": \"" << n.pause_worst_cause
         << "\", \"final_health\": \"" << n.final_health
         << "\", \"final_mode\": \"" << n.final_mode << "\"}";
    }
    os << "\n  ],\n";
  }
  os << "  \"metrics\": " << obs::to_json(obs::snapshot()) << "\n";
  os << "}\n";
  return os.str();
}

bool write_soak_report(const SoakReport& r, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << soak_report_json(r);
  return static_cast<bool>(out);
}

namespace {

/// The virtual mode every soak alternates with native.
constexpr core::ExecMode kSoakVirtMode = core::ExecMode::kPartialVirtual;
/// co_step budget for one fleet wave.
constexpr hw::Cycles kWaveBudget = 400 * hw::kCyclesPerMillisecond;

core::ExecMode opposite_mode(const core::SwitchEngine& engine) {
  return engine.mode() == core::ExecMode::kNative ? kSoakVirtMode
                                                  : core::ExecMode::kNative;
}

/// A committed request's switch is a service interruption as long as its
/// transfer window (the machine was rendezvoused, not running the
/// workload), ending when the request resolved. A commit that consumed no
/// attempt was a no-op and moved nothing. The window is measured on
/// whichever CPU handled the commit, while resolved_at is stamped on CPU 0
/// — per-CPU clocks skew between rendezvous points, so back-projecting the
/// raw window can reach behind the previous interruption's end. Clamp:
/// downtime intervals must not overlap or their sum exceeds the
/// observation span.
void account_commit(AvailabilityTracker& t, const core::SwitchStats& es,
                    const core::SupervisedRequest& r) {
  if (r.attempts == 0) return;
  const bool detach = r.target == core::ExecMode::kNative;
  const hw::Cycles window =
      detach ? es.last_detach_cycles : es.last_attach_cycles;
  if (window == 0 || r.resolved_at <= window) return;
  hw::Cycles down_at = r.resolved_at - window;
  if (!t.interruptions().empty())
    down_at = std::max(down_at, t.interruptions().back().ended);
  if (down_at >= r.resolved_at) return;
  t.service_down(down_at, detach ? "switch.detach" : "switch.attach");
  t.service_up(r.resolved_at);
}

/// Add one machine into a soak verdict: its supervisor's request and retry
/// counters, its engine's rollbacks and cancels, its stranded caller
/// requests, its availability window and its pause ledger. Counts sum, the
/// span and the worst pause take the maximum, and an unhealthy supervisor
/// names the final health. A single-machine soak folds its one machine; a
/// fleet soak folds each node.
void fold_machine(SoakReport& r, core::SwitchSupervisor& sup,
                  const AvailabilityTracker& t, const obs::PauseLedger& pl) {
  const core::SupervisorStats& ss = sup.stats();
  r.submitted += ss.submitted;
  r.committed += ss.committed;
  r.failed_deadline += ss.failed_deadline;
  r.failed_attempts += ss.failed_attempts;
  r.failed_quarantined += ss.failed_quarantined;
  r.cancelled += ss.cancelled;
  r.attempts += ss.attempts;
  r.retries += ss.retries;
  r.backoffs += ss.backoffs;
  r.quarantines += ss.quarantines;
  r.recoveries += ss.recoveries;
  r.probes += ss.probes;
  // The stranded-request gate covers caller-submitted requests only: a
  // supervisor-internal probe or quarantine detach legitimately in flight
  // at snapshot time is scheduled work, not a stranded request.
  for (const core::SupervisedRequest& q : sup.requests())
    if (!q.internal && !core::request_state_terminal(q.state)) ++r.unresolved;
  if (sup.health() != core::SupervisorHealth::kHealthy)
    r.final_health = core::supervisor_health_name(sup.health());

  r.rollbacks += sup.engine().stats().rollbacks;
  r.engine_cancels += sup.engine().stats().cancels;

  r.interruptions += t.interruptions().size();
  r.downtime_cycles += t.total_downtime();
  r.span_cycles = std::max<std::uint64_t>(r.span_cycles,
                                          t.observation_span());

  r.pause_intervals += pl.intervals();
  r.pause_unattributed += pl.unattributed();
  const obs::PauseWorst& pw = pl.worst();
  if (pw.valid && pw.span() > r.pause_worst_cycles) {
    r.pause_worst_cycles = pw.span();
    r.pause_worst_cause = obs::pause_cause_name(pw.cause);
  }
}

}  // namespace

SoakDriver::SoakDriver(core::SwitchSupervisor& supervisor, SoakParams p)
    : sup_(supervisor),
      kernel_(supervisor.engine().kernel()),
      params_(p),
      warm_rng_(p.warm_seed),
      self_(std::make_shared<SoakDriver*>(this)) {
  if (params_.cycles == 0) params_.cycles = 1;
}

hw::Cycles SoakDriver::now() const {
  return kernel_.machine().cpu(0).now();
}

void SoakDriver::start() {
  if (started_) return;
  started_ = true;
  arm_tick();
}

void SoakDriver::arm_tick() {
  std::weak_ptr<SoakDriver*> weak = self_;
  kernel_.add_timer(
      now() + hw::us_to_cycles(params_.request_interval_ms * 1000.0),
      [weak] {
        const auto locked = weak.lock();
        if (locked) (**locked).tick();
      });
}

void SoakDriver::tick() {
  if (done()) return;  // on_resolved finished the accounting
  if (!outstanding_ && submitted_ < params_.cycles) {
    // Alternate: whatever mode the machine settled in, ask for the other
    // one — a soak cycle is one supervised attach or detach end-to-end.
    const core::ExecMode target = opposite_mode(sup_.engine());
    core::RequestOptions opts;
    opts.deadline = params_.deadline;
    opts.max_attempts = params_.max_attempts;
    // Flip warm re-attach per cycle so a soak interleaves warm and cold
    // attaches (and retaining and plain detaches) under the same storm.
    if (params_.warm_reattach_rate > 0.0)
      sup_.engine().set_warm_reattach(
          warm_rng_.chance(params_.warm_reattach_rate));
    ++submitted_;
    outstanding_ = true;
    std::weak_ptr<SoakDriver*> weak = self_;
    sup_.submit(target, opts, [weak](const core::SupervisedRequest& r) {
      const auto locked = weak.lock();
      if (locked) (**locked).on_resolved(r);
    });
  }
  if (!done()) arm_tick();
}

void SoakDriver::on_resolved(const core::SupervisedRequest& r) {
  outstanding_ = false;
  ++resolved_;
  if (r.state == core::RequestState::kCommitted) {
    ++committed_;
    account_commit(tracker_, sup_.engine().stats(), r);
  }
  ++invariant_checks_;
  if (!core::check_machine_invariants(sup_.engine()).ok())
    ++invariant_violations_;
  if (done() && !finished_) {
    finished_ = true;
    tracker_.finish(now());
  }
}

bool SoakDriver::run_to_completion(hw::Cycles budget) {
  start();
  return kernel_.run_until([this] { return done(); }, budget);
}

SoakReport SoakDriver::report(std::uint64_t seed) const {
  SoakReport r;
  r.seed = seed;
  r.cpus = kernel_.machine().num_cpus();
  r.planned_cycles = params_.cycles;

  // Quote the storm as armed, not the live state: fire_storm() decays the
  // per-site rates, and the artifact must record the regime the run was
  // seeded with. The rate is the max across sites (uniform storms put the
  // same rate everywhere).
  const core::FaultInjector& fi = core::fault_injector();
  const core::FaultStorm& storm = fi.storm_config();
  r.storm_rate = *std::max_element(std::begin(storm.rate),
                                   std::end(storm.rate));
  r.storm_burst = storm.burst_windows;
  r.storm_decay = storm.decay;
  r.storm_fires = fi.storm_fires();
  r.storm_windows = fi.storm_windows();

  // Single-machine soaks record into the ambient (usually process-global)
  // ledger; obs-off builds report zeros, which the gate accepts.
  fold_machine(r, sup_, tracker_, obs::pause_ledger());
  r.availability = tracker_.availability();
  r.invariant_checks = invariant_checks_;
  r.invariant_violations = invariant_violations_;

  r.workload_ops = workload_ops_;
  r.workload_bytes = workload_bytes_;
  r.workload_corruptions = workload_corruptions_;

  r.converged = done() && r.unresolved == 0 && !tracker_.is_down();
  r.final_mode = core::exec_mode_name(sup_.engine().mode());
  return r;
}

// ---------------------------------------------------------------------------
// ClusterSoak
// ---------------------------------------------------------------------------

ClusterSoak::ClusterSoak(ClusterSoakParams p)
    : params_(p),
      sampler_(p.sample_capacity),
      self_(std::make_shared<ClusterSoak*>(this)) {
  if (params_.nodes == 0) params_.nodes = 1;
  if (params_.waves == 0) params_.waves = 1;
  sample_interval_ = hw::us_to_cycles(params_.sample_interval_ms * 1000.0);
  if (sample_interval_ == 0) sample_interval_ = hw::kCyclesPerMillisecond;

  for (std::size_t i = 0; i < params_.nodes; ++i) {
    NodeConfig nc;
    nc.cpus = params_.cpus_per_node;
    std::string name = "n";
    name += std::to_string(i);
    Node& n = fabric_.add_node(name, nc);
    if (i > 0) fabric_.connect(fabric_.node(0), n);

    auto rt = std::make_unique<NodeRt>();
    rt->node = &n;
    // Per-node jitter stream, derived from the run seed so two runs with
    // identical params draw identical backoff schedules on every node.
    core::SupervisorConfig sc = params_.supervisor;
    sc.seed = params_.seed * 0x9E3779B97F4A7C15ull + 0x1000ull * (i + 1);
    rt->supervisor =
        std::make_unique<core::SwitchSupervisor>(n.mercury().engine(), sc);
    nodes_.push_back(std::move(rt));
  }

  // Per-node time series. The readers view state owned by this run (never
  // the process-global registry, whose instruments accumulate across runs
  // in one process), so the sampled values are a pure function of params.
  for (const auto& rtp : nodes_) {
    NodeRt* rt = rtp.get();
    const std::string label = rt->node->obs_label();
    sampler_.add_series("switch.committed", label, [rt] {
      return static_cast<double>(rt->supervisor->stats().committed);
    });
    sampler_.add_series("switch.attempts", label, [rt] {
      return static_cast<double>(rt->supervisor->stats().attempts);
    });
    sampler_.add_series("switch.inflight", label, [rt] {
      return rt->supervisor->idle() ? 0.0 : 1.0;
    });
    sampler_.add_series("supervisor.health", label, [rt] {
      return static_cast<double>(rt->supervisor->health());
    });
    sampler_.add_series("exec.mode", label, [rt] {
      return static_cast<double>(rt->supervisor->engine().mode());
    });
    sampler_.add_series("pause.intervals", label, [rt] {
      return static_cast<double>(rt->node->pauses().intervals());
    });
    sampler_.add_series("pause.worst_cycles", label, [rt] {
      const obs::PauseWorst& w = rt->node->pauses().worst();
      return w.valid ? static_cast<double>(w.span()) : 0.0;
    });
  }
  sampler_.add_series("fleet.committed", "", [this] {
    double sum = 0.0;
    for (const auto& rt : nodes_)
      sum += static_cast<double>(rt->supervisor->stats().committed);
    return sum;
  });
  sampler_.add_series("fleet.inflight", "", [this] {
    double sum = 0.0;
    for (const auto& rt : nodes_)
      if (!rt->supervisor->idle()) sum += 1.0;
    return sum;
  });
  sampler_.add_series("fleet.quarantines", "", [this] {
    double sum = 0.0;
    for (const auto& rt : nodes_)
      sum += static_cast<double>(rt->supervisor->stats().quarantines);
    return sum;
  });
  sampler_.add_series("fleet.pause_worst_cycles", "", [this] {
    double worst = 0.0;
    for (const auto& rt : nodes_) {
      const obs::PauseWorst& w = rt->node->pauses().worst();
      if (w.valid) worst = std::max(worst, static_cast<double>(w.span()));
    }
    return worst;
  });
}

ClusterSoak::~ClusterSoak() = default;

void ClusterSoak::arm_sampler() {
  kernel::Kernel& k = nodes_[0]->node->active();
  std::weak_ptr<ClusterSoak*> weak = self_;
  k.add_timer(k.machine().cpu(0).now() + sample_interval_, [weak] {
    const auto locked = weak.lock();
    if (!locked) return;
    ClusterSoak& cs = **locked;
    if (cs.finished_) return;
    cs.sampler_.sample(cs.nodes_[0]->node->machine().cpu(0).now());
    cs.arm_sampler();
  });
}

void ClusterSoak::on_resolved(NodeRt& rt, const core::SupervisedRequest& r) {
  rt.outstanding = false;
  if (r.state == core::RequestState::kCommitted) {
    ++rt.committed;
    rt.node->metrics().counter("node.switch.committed").inc();
    account_commit(rt.tracker, rt.supervisor->engine().stats(), r);
  } else {
    ++rt.failed;
    rt.node->metrics().counter("node.switch.failed").inc();
  }
}

void ClusterSoak::run_wave() {
#if MERCURY_OBS_ENABLED
  // The wave is the root of one causal tree: allocate its identity up
  // front so every per-node message span (and, transitively, every commit
  // and crew-phase span on every node) links beneath it.
  obs::SpanContext wave_ctx;
  wave_ctx.trace_id = obs::next_span_id();
  wave_ctx.span_id = obs::next_span_id();
  const hw::Cycles wave_begin = fabric_.now();
#endif
  // Fleet-wide alternation: whatever mode node 0 settled in, the wave
  // drives every node toward the other one.
  const core::ExecMode target = opposite_mode(nodes_[0]->supervisor->engine());

  for (auto& rtp : nodes_) {
    NodeRt* rt = rtp.get();
    ++rt->submitted;
    rt->node->metrics().counter("node.switch.submitted").inc();
    // Set before submit: a quarantined supervisor fast-fails virtual
    // targets synchronously, resolving inside this call.
    rt->outstanding = true;
#if MERCURY_OBS_ENABLED
    obs::TraceNodeScope node_scope(rt->node->trace_node());
    obs::SpanContextScope wave_scope(wave_ctx);
    obs::TraceSpan msg(rt->node->machine().cpu(0), obs::TraceCat::kCluster,
                       "fabric.msg.switch");
#endif
    // submit can resolve synchronously (quarantine fast-fail) and a retry
    // can arm its backoff here — keep those pauses on this node's ledger.
    obs::PauseLedgerScope pause_scope(rt->node->pauses());
    rt->supervisor->submit(target, {},
                           [this, rt](const core::SupervisedRequest& r) {
                             on_resolved(*rt, r);
                           });
  }

  const bool ok = fabric_.co_step(
      [this] {
        for (const auto& rt : nodes_)
          if (rt->outstanding) return false;
        return true;
      },
      kWaveBudget);
  if (!ok) all_resolved_ok_ = false;
  ++waves_run_;

#if MERCURY_OBS_ENABLED
  obs::event_ring().record(obs::Event{
      .name = "cluster.wave", .type = obs::EventType::kSpan,
      .cat = obs::TraceCat::kCluster, .begin = wave_begin,
      .end = fabric_.now(), .trace_id = wave_ctx.trace_id,
      .span_id = wave_ctx.span_id});
#endif
}

void ClusterSoak::dwell() {
  const hw::Cycles gap = hw::us_to_cycles(params_.wave_interval_ms * 1000.0);
  if (gap == 0) return;
  // No cross-node messages are in flight between waves, so the nodes are
  // causally independent here: step each kernel on its own (co_step's
  // conservative clamping is built for message waves, not long idle gaps).
  // A one-shot timer marks the target — an idle kernel with no timers
  // never advances its clock.
  for (auto& rt : nodes_) {
    if (rt->node->failed()) continue;
    kernel::Kernel& k = rt->node->active();
    // The dwell steps this kernel directly (not via step_node), so scope
    // the node's ledger here too: supervisor backoff timers fire mid-dwell.
    obs::PauseLedgerScope pause_scope(rt->node->pauses());
    // shared_ptr, not a stack flag: if the budget trips first, the queued
    // timer outlives this frame.
    auto fired = std::make_shared<bool>(false);
    k.add_timer(k.machine().cpu(0).now() + gap, [fired] { *fired = true; });
    if (!k.run_until([fired] { return *fired; }, gap * 2))
      all_resolved_ok_ = false;
  }
}

bool ClusterSoak::run() {
  arm_sampler();
  sampler_.sample(nodes_[0]->node->machine().cpu(0).now());
  for (std::uint64_t w = 0; w < params_.waves; ++w) {
    run_wave();
    dwell();
  }
  finished_ = true;
  // Close every node's availability window at its own clock.
  for (auto& rt : nodes_)
    rt->tracker.finish(rt->node->machine().cpu(0).now());
  // Final sample so the series end at the fleet's settled state.
  sampler_.sample(nodes_[0]->node->machine().cpu(0).now());
  bool unresolved = false;
  for (const auto& rt : nodes_)
    if (rt->outstanding) unresolved = true;
  return all_resolved_ok_ && !unresolved;
}

SoakReport ClusterSoak::report() const {
  SoakReport r;
  r.seed = params_.seed;
  r.cpus = params_.nodes * params_.cpus_per_node;
  r.planned_cycles = params_.waves;

  double avail_sum = 0.0;
  for (const auto& rtp : nodes_) {
    const NodeRt& rt = *rtp;
    fold_machine(r, *rt.supervisor, rt.tracker, rt.node->pauses());
    // The node's own section: the same fold over this node alone.
    SoakReport own;
    fold_machine(own, *rt.supervisor, rt.tracker, rt.node->pauses());
    NodeSoakStats ns;
    ns.name = rt.node->name();
    ns.submitted = rt.submitted;
    ns.committed = rt.committed;
    ns.failed = rt.failed;
    ns.retries = own.retries;
    ns.quarantines = own.quarantines;
    ns.availability = rt.tracker.availability();
    ns.interruptions = own.interruptions;
    ns.downtime_cycles = own.downtime_cycles;
    ns.span_cycles = own.span_cycles;
    ns.pause_intervals = own.pause_intervals;
    ns.pause_unattributed = own.pause_unattributed;
    ns.pause_worst_cycles = own.pause_worst_cycles;
    ns.pause_worst_cause = own.pause_worst_cause;
    ns.final_health = own.final_health;
    ns.final_mode = core::exec_mode_name(rt.supervisor->engine().mode());
    avail_sum += ns.availability;
    r.nodes.push_back(std::move(ns));
  }
  r.availability = avail_sum / static_cast<double>(nodes_.size());
  r.final_mode =
      core::exec_mode_name(nodes_.front()->supervisor->engine().mode());
  r.converged = finished_ && all_resolved_ok_ && r.unresolved == 0;
  return r;
}

}  // namespace mercury::cluster
