// Telemetry umbrella: instrumentation macros for the hot paths
// (telemetry pillar 3).
//
// Every hook compiles away completely when the MERCURY_OBS CMake option is
// OFF (MERCURY_OBS_ENABLED=0): no registry lookups, no ring writes, no
// cpu.now() samples — mirroring Mercury's "pay only when attached"
// philosophy. The obs library itself still builds in both configurations so
// benches and tests that *read* telemetry keep linking (they simply see
// empty registries).
//
// Macro cost when enabled: the registry lookup happens once per call site
// (function-local static reference); the steady-state update is an inlined
// integer add / ring-slot store. Instrumentation must never cpu.charge():
// telemetry observes simulated time, it does not create it.
#pragma once

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/pause_ledger.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

#ifndef MERCURY_OBS_ENABLED
#define MERCURY_OBS_ENABLED 1
#endif

#include "hw/cpu.hpp"

namespace mercury::obs {

/// RAII span over simulated cycles on one CPU (see trace.hpp). Each span
/// allocates itself a SpanContext — joining the ambient trace when one is
/// active, rooting a fresh trace otherwise — and installs that context as
/// ambient for its scope, so nested spans and instants become its causal
/// children in the Chrome export.
class TraceSpan {
 public:
  TraceSpan(hw::Cpu& cpu, TraceCat cat, const char* name)
      : cpu_(&cpu), cat_(cat), name_(name), begin_(cpu.now()),
        parent_(current_span_context()) {
    ctx_.trace_id = parent_.valid() ? parent_.trace_id : next_span_id();
    ctx_.span_id = next_span_id();
    ctx_.parent_id = parent_.span_id;
    set_span_context(ctx_);
  }
  ~TraceSpan() {
    set_span_context(parent_);
    event_ring().record(Event{.name = name_, .type = EventType::kSpan,
                              .cat = cat_, .cpu = cpu_->id(),
                              .begin = begin_, .end = cpu_->now(),
                              .trace_id = ctx_.trace_id,
                              .span_id = ctx_.span_id,
                              .parent_id = ctx_.parent_id});
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Capture this span's identity to re-join its trace after an
  /// asynchronous hop (supervisor request, cross-node message).
  const SpanContext& context() const { return ctx_; }

 private:
  hw::Cpu* cpu_;
  TraceCat cat_;
  const char* name_;
  hw::Cycles begin_;
  SpanContext parent_;
  SpanContext ctx_;
};

/// RAII engine-profiler scope (see profiler.hpp): charges `bucket` with the
/// wall-clock nanoseconds and simulated cycles spent inside the scope.
/// Reads host *and* sim clocks only while the profiler is enabled; never
/// charges simulated time itself.
class ProfScope {
 public:
  ProfScope(ProfBucket* bucket, const hw::Cpu* cpu)
      : bucket_(profiler().enabled() ? bucket : nullptr), cpu_(cpu) {
    if (bucket_) {
      wall_begin_ = std::chrono::steady_clock::now();
      sim_begin_ = cpu_ ? cpu_->now() : 0;
    }
  }
  ~ProfScope() {
    if (!bucket_) return;
    const auto wall = std::chrono::steady_clock::now() - wall_begin_;
    const std::uint64_t wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
    const std::uint64_t sim =
        cpu_ ? static_cast<std::uint64_t>(cpu_->now() - sim_begin_) : 0;
    profiler().record(*bucket_, wall_ns, sim);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfBucket* bucket_;
  const hw::Cpu* cpu_;
  std::chrono::steady_clock::time_point wall_begin_{};
  hw::Cycles sim_begin_ = 0;
};

}  // namespace mercury::obs

#if MERCURY_OBS_ENABLED

#define MERC_OBS_CONCAT_(a, b) a##b
#define MERC_OBS_CONCAT(a, b) MERC_OBS_CONCAT_(a, b)

/// Count an event on the global registry: MERC_COUNT("kernel.syscalls").
#define MERC_COUNT(name_) MERC_COUNT_N(name_, 1)
#define MERC_COUNT_N(name_, n_)                                         \
  do {                                                                  \
    static ::mercury::obs::Counter& MERC_OBS_CONCAT(merc_obs_c_, __LINE__) = \
        ::mercury::obs::registry().counter(name_);                      \
    MERC_OBS_CONCAT(merc_obs_c_, __LINE__).inc(n_);                     \
  } while (0)

/// Set a gauge: MERC_GAUGE_SET("availability.fraction", 0.99999).
#define MERC_GAUGE_SET(name_, v_)                                       \
  do {                                                                  \
    static ::mercury::obs::Gauge& MERC_OBS_CONCAT(merc_obs_g_, __LINE__) = \
        ::mercury::obs::registry().gauge(name_);                        \
    MERC_OBS_CONCAT(merc_obs_g_, __LINE__).set(static_cast<double>(v_)); \
  } while (0)

/// Record a value into a named histogram (cycles, bytes, counts).
#define MERC_HIST(name_, v_)                                            \
  do {                                                                  \
    static ::mercury::obs::Hist& MERC_OBS_CONCAT(merc_obs_h_, __LINE__) = \
        ::mercury::obs::registry().histogram(name_);                    \
    MERC_OBS_CONCAT(merc_obs_h_, __LINE__).record(                      \
        static_cast<std::uint64_t>(v_));                                \
  } while (0)

/// Scoped trace span over cpu_'s simulated clock for the rest of the block.
#define MERC_SPAN(cpu_, cat_, name_)                                    \
  ::mercury::obs::TraceSpan MERC_OBS_CONCAT(merc_obs_span_, __LINE__)(  \
      cpu_, ::mercury::obs::TraceCat::cat_, name_)

/// Zero-duration marker event at cpu_'s current simulated time.
#define MERC_INSTANT(cpu_, cat_, name_)                                  \
  ::mercury::obs::event_ring().record(                                   \
      (cpu_).id(), ::mercury::obs::EventType::kInstant, name_,           \
      (cpu_).now(), 0, 0, 0, ::mercury::obs::TraceCat::cat_)

/// Black-box event on cpu_'s ring, stamped with its id and clock:
/// MERC_FLIGHT(cpu, kFaultHit, "adopt.rebuild", site, kind, visits).
/// Up to three integer arguments; type_ is a bare EventType enumerator.
#define MERC_FLIGHT(cpu_, type_, name_, ...)                             \
  ::mercury::obs::event_ring().record(                                   \
      (cpu_).id(), ::mercury::obs::EventType::type_, name_,              \
      (cpu_).now() __VA_OPT__(, ) __VA_ARGS__)

/// Record one closed per-CPU unavailability interval on the ambient pause
/// ledger: MERC_PAUSE(kRendezvousParked, cpu_id, begin, end, "site").
/// cause_ is a bare PauseCause enumerator; cycles are simulated clocks the
/// site already computed — the ledger never charges simulated time.
#define MERC_PAUSE(cause_, cpu_id_, begin_, end_, detail_)               \
  ::mercury::obs::pause_ledger().record(                                 \
      ::mercury::obs::PauseCause::cause_, (cpu_id_), (begin_), (end_),   \
      (detail_))

/// Open / close an unavailability interval across separated call sites
/// (hypercall enter/exit). Unpaired halves count as unattributed, which
/// the soak gate holds at zero.
#define MERC_PAUSE_BEGIN(cause_, cpu_id_, begin_, detail_)               \
  ::mercury::obs::pause_ledger().begin_interval(                         \
      ::mercury::obs::PauseCause::cause_, (cpu_id_), (begin_), (detail_))
#define MERC_PAUSE_END(cpu_id_, end_)                                    \
  ::mercury::obs::pause_ledger().end_interval((cpu_id_), (end_))

/// Engine-profiler scope: charge the named bucket with wall-clock ns and
/// simulated cycles spent in the rest of the block. cpu_ptr_ may be null
/// (wall-clock only). The bucket lookup runs once per call site.
#define MERC_PROF_SCOPE(name_, cpu_ptr_)                                  \
  static ::mercury::obs::ProfBucket* MERC_OBS_CONCAT(merc_obs_pb_,        \
                                                     __LINE__) =          \
      ::mercury::obs::profiler().bucket(name_);                           \
  ::mercury::obs::ProfScope MERC_OBS_CONCAT(merc_obs_ps_, __LINE__)(      \
      MERC_OBS_CONCAT(merc_obs_pb_, __LINE__), cpu_ptr_)

#else  // !MERCURY_OBS_ENABLED

#define MERC_COUNT(name_) ((void)0)
#define MERC_COUNT_N(name_, n_) ((void)0)
#define MERC_GAUGE_SET(name_, v_) ((void)0)
#define MERC_HIST(name_, v_) ((void)0)
#define MERC_SPAN(cpu_, cat_, name_) ((void)0)
#define MERC_INSTANT(cpu_, cat_, name_) ((void)0)
#define MERC_FLIGHT(...) ((void)0)
#define MERC_PAUSE(cause_, cpu_id_, begin_, end_, detail_) ((void)0)
#define MERC_PAUSE_BEGIN(cause_, cpu_id_, begin_, detail_) ((void)0)
#define MERC_PAUSE_END(cpu_id_, end_) ((void)0)
#define MERC_PROF_SCOPE(name_, cpu_ptr_) ((void)0)

#endif  // MERCURY_OBS_ENABLED
