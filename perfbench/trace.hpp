// In-memory span recorder for the traced run. The benchmark wraps each call
// it makes into a layer's public function (set-up constructors, workload
// drivers, Kernel::run_for, Mercury::switch_to, the dependability arcs) in
// a SpanScope; nothing inside the simulator is instrumented. Disabled, a
// SpanScope costs one branch and reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Start a new benchmark operation: spans opened until the next call
  /// share its identifier.
  void next_op() { ++op_; }

  std::uint64_t open(std::string_view layer, std::string_view name);
  void close(std::uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Drop spans recorded so far (span and operation ids keep counting).
  void clear() { spans_.clear(); }

 private:
  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_, innermost last
};

SpanRecorder& recorder();

/// Write `spans` as one JSON array; false on I/O failure.
bool write_spans_json(const std::vector<Span>& spans, const std::string& path);

class SpanScope {
 public:
  SpanScope(std::string_view layer, std::string_view name)
      : id_(recorder().enabled() ? recorder().open(layer, name) : 0) {}
  ~SpanScope() {
    if (id_ != 0) recorder().close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::uint64_t id_;
};

/// Run `f` inside a span and return its result.
template <typename F>
decltype(auto) traced(std::string_view layer, std::string_view name, F&& f) {
  SpanScope scope(layer, name);
  return std::forward<F>(f)();
}

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
