#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"

namespace mercury::obs {

namespace {
// The simulator is single-threaded, so the ambient causal context and node
// attribution are plain globals (see trace.hpp header comment).
SpanContext g_span_ctx;
std::uint32_t g_trace_node = 0;
std::uint64_t g_next_span_id = 0;
}  // namespace

const SpanContext& current_span_context() { return g_span_ctx; }
void set_span_context(const SpanContext& ctx) { g_span_ctx = ctx; }
std::uint64_t next_span_id() { return ++g_next_span_id; }
std::uint32_t current_trace_node() { return g_trace_node; }
void set_trace_node(std::uint32_t node) { g_trace_node = node; }

const char* trace_cat_name(TraceCat cat) {
  switch (cat) {
    case TraceCat::kSwitch: return "switch";
    case TraceCat::kRendezvous: return "rendezvous";
    case TraceCat::kTransfer: return "transfer";
    case TraceCat::kFixup: return "fixup";
    case TraceCat::kVmm: return "vmm";
    case TraceCat::kNet: return "net";
    case TraceCat::kFs: return "fs";
    case TraceCat::kCluster: return "cluster";
    case TraceCat::kFault: return "fault";
    case TraceCat::kOther: return "other";
  }
  return "?";
}

const char* event_type_name(EventType t) {
  switch (t) {
    case EventType::kSpan: return "span";
    case EventType::kInstant: return "instant";
    case EventType::kPhaseBegin: return "phase.begin";
    case EventType::kPhaseEnd: return "phase.end";
    case EventType::kSwitchRequest: return "switch.request";
    case EventType::kSwitchCommit: return "switch.commit";
    case EventType::kSwitchRollback: return "switch.rollback";
    case EventType::kRefcountRetry: return "refcount.retry";
    case EventType::kCrewPublish: return "crew.publish";
    case EventType::kCrewGrab: return "crew.grab";
    case EventType::kCrewJoin: return "crew.join";
    case EventType::kShardRange: return "shard.range";
    case EventType::kFaultHit: return "fault.hit";
    case EventType::kRollbackStep: return "rollback.step";
    case EventType::kInvariantVerdict: return "invariant.verdict";
    case EventType::kAssertFail: return "assert.fail";
    case EventType::kSwitchCancel: return "switch.cancel";
    case EventType::kSupervisorAttempt: return "supervisor.attempt";
    case EventType::kSupervisorBackoff: return "supervisor.backoff";
    case EventType::kSupervisorResolve: return "supervisor.resolve";
    case EventType::kHealthTransition: return "supervisor.health";
    case EventType::kPauseWorst: return "pause.worst";
  }
  return "?";
}

EventRing::EventRing(std::size_t capacity_per_cpu)
    : capacity_(capacity_per_cpu ? capacity_per_cpu : 1) {}

void EventRing::clear() {
  rings_.clear();
  recorded_ = 0;
  dropped_ = 0;
  // next_seq_ keeps counting: seq is an emission order, not an index, and a
  // clear between switches must not make old exported events look newer
  // than post-clear ones.
}

Event& EventRing::claim(std::uint32_t cpu) {
  if (cpu >= rings_.size()) rings_.resize(cpu + 1);
  Ring& r = rings_[cpu];
  if (r.slots.empty()) r.slots.resize(capacity_);
  if (r.size == r.slots.size()) ++dropped_;  // overwriting the oldest
  else ++r.size;
  Event& slot = r.slots[r.head];
  r.head = (r.head + 1) % r.slots.size();
  ++recorded_;
  return slot;
}

void EventRing::record(const Event& ev) {
  Event& slot = claim(ev.cpu);
  slot = ev;
  slot.seq = next_seq_++;
  if (slot.node == 0) slot.node = current_trace_node();
}

void EventRing::record(std::uint32_t cpu, EventType type, const char* name,
                       hw::Cycles at, std::uint64_t arg0, std::uint64_t arg1,
                       std::uint64_t arg2, TraceCat cat) {
  const SpanContext& ctx = current_span_context();
  // Point events hang off whatever span is ambient at the call site.
  claim(cpu) = Event{.name = name, .type = type, .cat = cat, .cpu = cpu,
                     .node = current_trace_node(), .begin = at, .end = at,
                     .seq = next_seq_++, .trace_id = ctx.trace_id,
                     .parent_id = ctx.span_id, .arg0 = arg0, .arg1 = arg1,
                     .arg2 = arg2};
}

std::vector<Event> EventRing::events() const {
  std::vector<Event> out;
  for (const Ring& r : rings_) {
    // Oldest retained event sits at head when the ring has wrapped.
    const std::size_t cap = r.slots.size();
    const std::size_t start = r.size == cap ? r.head : 0;
    for (std::size_t i = 0; i < r.size; ++i)
      out.push_back(r.slots[(start + i) % cap]);
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

std::vector<Event> EventRing::tail(std::size_t n) const {
  std::vector<Event> all = events();
  if (all.size() > n)
    all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(n));
  return all;
}

EventRing& event_ring() {
  static EventRing ring;
  // Ring overflow must be visible in every --metrics-json artifact, not
  // silently lost: expose the running totals as callback gauges the first
  // time anything touches the ring.
  static const bool registered = [] {
    registry().register_callback("obs.events.recorded", {}, [] {
      return static_cast<double>(event_ring().recorded());
    });
    registry().register_callback("obs.events.dropped", {}, [] {
      return static_cast<double>(event_ring().dropped());
    });
    return true;
  }();
  (void)registered;
  return ring;
}

std::string chrome_trace_json(const EventRing& ring) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char num[64];
  for (const Event& ev : ring.events()) {
    const bool span = ev.type == EventType::kSpan;
    const bool black_box = !span && ev.type != EventType::kInstant;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += ev.name;  // names are C literals: no escaping needed
    out += "\",\"cat\":\"";
    out += black_box ? event_type_name(ev.type) : trace_cat_name(ev.cat);
    std::snprintf(num, sizeof num, "%.3f", hw::cycles_to_us(ev.begin));
    if (span) {
      out += "\",\"ph\":\"X\",\"ts\":";
      out += num;
      out += ",\"dur\":";
      std::snprintf(num, sizeof num, "%.3f",
                    hw::cycles_to_us(ev.end - ev.begin));
      out += num;
    } else {
      out += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      out += num;
    }
    // pid = cluster node: each node renders as its own process group in the
    // Chrome/Perfetto UI (node 0 = unscoped single-machine events).
    out += ",\"pid\":";
    out += std::to_string(ev.node);
    out += ",\"tid\":";
    out += std::to_string(ev.cpu);
    out += ",\"args\":{\"seq\":";
    out += std::to_string(ev.seq);
    if (ev.trace_id != 0) {
      out += ",\"trace\":";
      out += std::to_string(ev.trace_id);
      if (ev.span_id != 0) {
        out += ",\"span\":";
        out += std::to_string(ev.span_id);
      }
      out += ",\"parent\":";
      out += std::to_string(ev.parent_id);
    }
    if (black_box) {
      out += ",\"arg0\":";
      out += std::to_string(ev.arg0);
      out += ",\"arg1\":";
      out += std::to_string(ev.arg1);
      out += ",\"arg2\":";
      out += std::to_string(ev.arg2);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

bool write_chrome_trace(const std::string& path, const EventRing& ring) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = chrome_trace_json(ring);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

std::string events_json(const std::vector<Event>& events) {
  std::string out = "[";
  bool first = true;
  for (const Event& ev : events) {
    // A span is stamped at its end and carries its duration as args[0].
    const bool span = ev.type == EventType::kSpan;
    if (!first) out += ',';
    first = false;
    out += "{\"seq\":";
    out += std::to_string(ev.seq);
    out += ",\"cpu\":";
    out += std::to_string(ev.cpu);
    out += ",\"cycles\":";
    out += std::to_string(span ? ev.end : ev.begin);
    out += ",\"type\":\"";
    out += event_type_name(ev.type);
    out += "\",\"name\":\"";
    out += ev.name;  // names are C literals: no escaping needed
    out += "\",\"args\":[";
    out += std::to_string(span ? ev.end - ev.begin : ev.arg0);
    out += ',';
    out += std::to_string(ev.arg1);
    out += ',';
    out += std::to_string(ev.arg2);
    out += "]}";
  }
  out += ']';
  return out;
}

}  // namespace mercury::obs
