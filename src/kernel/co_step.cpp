#include "kernel/co_step.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace mercury::kernel {

namespace {
/// Link lookahead: no message from one kernel lands sooner than this after
/// its sender's clock, so a kernel may idle this far past the runner-up.
constexpr hw::Cycles kLookahead = 20 * hw::kCyclesPerMicrosecond;
}  // namespace

bool co_step(std::span<Kernel* const> kernels,
             const std::function<bool()>& pred, hw::Cycles budget,
             const std::function<bool(std::size_t)>& step) {
  MERC_CHECK_MSG(!kernels.empty(), "co_step with no kernels");
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t n = kernels.size();
  const auto clock = [&](std::size_t i) {
    return kernels[i]->earliest_cpu_time();
  };
  const auto step_one = [&](std::size_t i) {
    return step ? step(i) : kernels[i]->step();
  };
  // Clock order; equal clocks go to the lower index.
  const auto before = [&](std::size_t i, std::size_t j) {
    const hw::Cycles ti = clock(i), tj = clock(j);
    return ti < tj || (ti == tj && i < j);
  };

  hw::Cycles start = clock(0);
  for (std::size_t i = 1; i < n; ++i) start = std::min(start, clock(i));

  while (!pred()) {
    std::size_t first = 0, second = kNone;
    for (std::size_t i = 1; i < n; ++i) {
      if (before(i, first)) {
        second = first;
        first = i;
      } else if (second == kNone || before(i, second)) {
        second = i;
      }
    }

    Kernel& k = *kernels[first];
    if (second != kNone) k.set_idle_clamp(clock(second) + kLookahead);
    const bool progressed = step_one(first);
    k.set_idle_clamp(0);
    if (!progressed) {
      // `first` is parked at the clamp (or fully idle): try the others,
      // earliest first. A step that makes no progress moves no clock, so
      // walking successors in clock order visits each other kernel once.
      bool any = false;
      for (std::size_t prev = first; !any;) {
        std::size_t next = kNone;
        for (std::size_t i = 0; i < n; ++i)
          if (before(prev, i) && (next == kNone || before(i, next))) next = i;
        if (next == kNone) break;
        any = step_one(next);
        prev = next;
      }
      if (!any) {
        if (pred()) return true;
        // Everyone parked: release the earliest past its clamp.
        k.advance_all_cpus_to(clock(second == kNone ? first : second) +
                              kLookahead);
        if (!step_one(first)) return pred();
      }
    }

    // Budget on the *furthest* clock: if one kernel is fully idle (frozen),
    // the others' progress must still bound the loop.
    hw::Cycles now = 0;
    for (std::size_t i = 0; i < n; ++i) now = std::max(now, clock(i));
    if (now - start > budget) return false;
  }
  return true;
}

}  // namespace mercury::kernel
