// One event stream (telemetry pillar 2 + the dependability black box).
//
// Fixed-capacity per-CPU rings of typed events over simulated hw::Cycles:
// spans recorded by scoped RAII TraceSpans, instant markers, and the
// black-box events that make every rollback, crash and invariant failure
// diagnosable after the fact — phase begin/end with item counts,
// refcount-retry with the observed count, crew shard publish/grab/join,
// fault-injection hits, rollback steps, invariant verdicts.
// Every event carries a *global* sequence number, so merging the per-CPU
// rings by `seq` reconstructs exactly the order in which the
// single-threaded simulator emitted them, and up to three integer args.
//
// The ring has two views: chrome_trace_json() (chrome://tracing / Perfetto
// "Open trace file": one process per cluster node, one track per simulated
// CPU, ts/dur in simulated microseconds) and events_json(), the tail the
// postmortem bundle and the pause ledger embed.
//
// Rings overwrite their oldest event when full (the dropped count is kept),
// so recording never allocates on the hot path after the first event on a
// CPU and a runaway workload cannot exhaust memory — Mercury's "pay only
// when attached" philosophy applied to telemetry. Recording is a ring-slot
// store plus a counter increment and never cpu.charge()s.
//
// Causal tracing: every span carries a SpanContext (trace-id / span-id /
// parent-span-id). The simulator is a single-threaded discrete-event
// machine, so the *ambient* context is one global slot: a TraceSpan makes
// itself the ambient context for its scope, and anything recorded inside —
// nested spans, point events, a cross-node switch request — links to it.
// The cluster fabric installs a TraceNodeScope around each node's stepper
// so events are attributed to the node (the Chrome pid) they ran on, and
// the switch supervisor/engine carry a captured SpanContext across the
// asynchronous request -> interrupt -> commit hop, so one cluster-wide
// switch wave renders as a single causally-linked tree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/types.hpp"

namespace mercury::hw {
class Cpu;
}

namespace mercury::obs {

enum class TraceCat : std::uint8_t {
  kSwitch,      // whole mode-switch commits
  kRendezvous,  // §5.4 SMP barrier
  kTransfer,    // §5.1.2 state-transfer phases
  kFixup,       // stack segment-selector rewriting
  kVmm,         // hypervisor: adopt/release, hypercall storms
  kNet,         // network stack
  kFs,          // filesystem / block cache
  kCluster,     // cross-node scenarios
  kFault,       // injected faults + mid-switch rollbacks
  kOther,
};

const char* trace_cat_name(TraceCat cat);

/// Causal identity of one span. Ids come from a process-global monotonic
/// counter (deterministic, never random): 0 means "none", so a
/// default-constructed context is the absence of a trace.
struct SpanContext {
  std::uint64_t trace_id = 0;   // the whole causal tree (e.g. one wave)
  std::uint64_t span_id = 0;    // this span
  std::uint64_t parent_id = 0;  // enclosing span (0 = root)
  bool valid() const { return trace_id != 0; }
};

/// The ambient span context (single global slot; see the header comment).
const SpanContext& current_span_context();
void set_span_context(const SpanContext& ctx);

/// Allocate the next span/trace id (monotonic, starts at 1).
std::uint64_t next_span_id();

/// RAII: install `ctx` as the ambient context, restore the prior one on
/// scope exit. Used to re-establish a captured context after an
/// asynchronous hop (supervisor retry timer, cross-node message).
class SpanContextScope {
 public:
  explicit SpanContextScope(const SpanContext& ctx)
      : prev_(current_span_context()) {
    set_span_context(ctx);
  }
  ~SpanContextScope() { set_span_context(prev_); }
  SpanContextScope(const SpanContextScope&) = delete;
  SpanContextScope& operator=(const SpanContextScope&) = delete;

 private:
  SpanContext prev_;
};

/// The ambient cluster-node id events are attributed to (the Chrome export
/// pid). 0 = unscoped single-machine runs; the fabric assigns index+1.
std::uint32_t current_trace_node();
void set_trace_node(std::uint32_t node);

/// RAII node attribution, installed by Fabric::co_step around each node's
/// kernel stepper.
class TraceNodeScope {
 public:
  explicit TraceNodeScope(std::uint32_t node) : prev_(current_trace_node()) {
    set_trace_node(node);
  }
  ~TraceNodeScope() { set_trace_node(prev_); }
  TraceNodeScope(const TraceNodeScope&) = delete;
  TraceNodeScope& operator=(const TraceNodeScope&) = delete;

 private:
  std::uint32_t prev_;
};

/// What an Event records. kSpan / kInstant come from the tracer macros;
/// the rest are the black-box types, each carrying up to three integer
/// arguments.
enum class EventType : std::uint8_t {
  kSpan,              // TraceSpan: begin..end over one CPU's clock
  kInstant,           // MERC_INSTANT marker
  kPhaseBegin,        // arg0 = item count (frames, tables, tasks)
  kPhaseEnd,          // arg0 = item count, arg1 = elapsed cycles
  kSwitchRequest,     // arg0 = from mode, arg1 = target mode
  kSwitchCommit,      // arg0 = from mode, arg1 = target mode, arg2 = cycles
  kSwitchRollback,    // arg0 = from mode, arg1 = target mode
  kRefcountRetry,     // arg0 = observed active_refs, arg1 = total deferrals
  kCrewPublish,       // arg0 = items, arg1 = shard count, arg2 = crew size
  kCrewGrab,          // arg0 = shard begin, arg1 = shard end, arg2 = cycles
  kCrewJoin,          // arg0 = shards run, arg1 = busy cycles, arg2 = span
  kShardRange,        // arg0 = count, arg1 = first pfn, arg2 = last pfn
  kFaultHit,          // arg0 = site, arg1 = kind, arg2 = visit count
  kRollbackStep,      // arg0 = step ordinal
  kInvariantVerdict,  // arg0 = violation count
  kAssertFail,        // arg0 = source line
  kSwitchCancel,      // arg0 = current mode, arg1 = abandoned target mode
  kSupervisorAttempt, // arg0 = request id, arg1 = attempt #, arg2 = target
  kSupervisorBackoff, // arg0 = request id, arg1 = attempt #, arg2 = delay cy
  kSupervisorResolve, // arg0 = request id, arg1 = terminal state, arg2 = attempts
  kHealthTransition,  // arg0 = from health, arg1 = to health, arg2 = fail streak
  kPauseWorst,        // arg0 = pause cause, arg1 = begin cycle, arg2 = span
};

const char* event_type_name(EventType t);

struct Event {
  const char* name = "";  // static string (event names are literals)
  EventType type = EventType::kInstant;
  TraceCat cat = TraceCat::kOther;
  std::uint32_t cpu = 0;
  std::uint32_t node = 0;  // cluster node (0 = unscoped); Chrome pid
  hw::Cycles begin = 0;
  hw::Cycles end = 0;          // == begin for point events
  std::uint64_t seq = 0;       // global emission order, assigned by the ring
  std::uint64_t trace_id = 0;  // causal tree (0 = untraced event)
  std::uint64_t span_id = 0;   // spans only
  std::uint64_t parent_id = 0;
  std::uint64_t arg0 = 0, arg1 = 0, arg2 = 0;
};

/// Per-CPU rings of Events with one global sequence counter. Rings
/// overwrite their oldest event when full (the dropped count is kept): the
/// recorder never allocates after the first event on a CPU and never loses
/// the *newest* evidence.
class EventRing {
 public:
  // 2048 x 104-byte events: about 208 KB for each CPU that records. At this
  // size bench_modeswitch's sweep overwrites 28% of its events.
  static constexpr std::size_t kCapacityPerCpu = 2048;

  explicit EventRing(std::size_t capacity_per_cpu = kCapacityPerCpu);

  /// Record `ev` as given (a span carries its own context), stamping the
  /// next sequence number and — when ev.node is 0 — the ambient trace node.
  void record(const Event& ev);
  /// Record a point event at `at` on `cpu`, hung off the ambient
  /// SpanContext and trace node.
  void record(std::uint32_t cpu, EventType type, const char* name,
              hw::Cycles at, std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
              std::uint64_t arg2 = 0, TraceCat cat = TraceCat::kOther);

  /// All retained events merged across CPUs, in emission (seq) order.
  std::vector<Event> events() const;
  /// The last `n` retained events in emission order — the black-box tail.
  std::vector<Event> tail(std::size_t n) const;

  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }
  /// The seq the *next* record() will stamp, so a caller can capture it
  /// just before emitting an event it wants to cross-reference (the pause
  /// ledger's worst-case tracker does).
  std::uint64_t next_seq() const { return next_seq_; }
  /// Drops retained events; the sequence keeps counting, so events exported
  /// before and after a clear still order correctly.
  void clear();

 private:
  struct Ring {
    std::vector<Event> slots;
    std::size_t head = 0;  // next write position
    std::size_t size = 0;
  };
  Event& claim(std::uint32_t cpu);

  std::size_t capacity_;
  std::vector<Ring> rings_;  // indexed by cpu id, grown on demand
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_seq_ = 1;  // global across rings; survives clear()
};

/// The process-global ring the instrumentation macros record into. First
/// use registers `obs.events.recorded` / `obs.events.dropped` callback
/// gauges so ring overflow shows up in every --metrics-json artifact.
EventRing& event_ring();

/// View: Chrome trace_event JSON of the ring. Spans render as "X" complete
/// events and everything else as "i" instants; pid = the cluster node, one
/// tid per simulated CPU; seq and span/trace/parent ids travel in "args",
/// as do a black-box event's three arguments (its "cat" is its type name).
/// Loadable by chrome://tracing and ui.perfetto.dev.
std::string chrome_trace_json(const EventRing& ring = event_ring());

/// Write chrome_trace_json() to `path`; false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const EventRing& ring = event_ring());

/// View: JSON array of `events` (each `{"seq":..,"cpu":..,"cycles":..,
/// "type":..,"name":..,"args":[a0,a1,a2]}`), used by the postmortem bundle
/// and the pause ledger. A span appears with `cycles` = its end and
/// args[0] = its duration.
std::string events_json(const std::vector<Event>& events);

/// RAII span over simulated time: samples cpu.now() at construction and
/// destruction and records a complete event. Constructing spans inside
/// spans yields properly nested Chrome trace stacks, and each span installs
/// itself as the ambient SpanContext so the nesting is also causal.
/// Implemented inline in obs/obs.hpp (needs hw::Cpu); prefer the MERC_SPAN
/// macro, which compiles away when MERCURY_OBS_ENABLED=0.
class TraceSpan;

}  // namespace mercury::obs
