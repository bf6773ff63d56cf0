// Switch-SLO watchdog: per-phase cycle budgets checked after every commit.
//
// Mercury's pitch is that a mode switch is cheap enough to trigger on a
// live machine; the watchdog turns that promise into an enforced service
// level. The engine declares budgets (from SwitchConfig), reports each
// phase's actual cycles after a commit, and every breach becomes a
// `switch.slo.breaches` counter bump, a kSloBreach flight-recorder event,
// and a warning log line — evidence in the black box, not a silent miss.
//
// The watchdog itself is pure host-side bookkeeping: it never charges
// simulated cycles, and its flight/metric emissions compile away under
// MERCURY_OBS=OFF (the breach *count* is still kept, so tests and callers
// can assert on it in either configuration).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/types.hpp"

namespace mercury::obs {

class SloWatchdog {
 public:
  /// Set the budget for `phase` (0 = unlimited). `phase` must be a string
  /// literal or otherwise outlive the watchdog: breaches record the pointer
  /// into the event ring.
  void set_budget(const char* phase, hw::Cycles budget);
  hw::Cycles budget(const char* phase) const;

  /// Report `actual` cycles spent in `phase` on `cpu` at simulated time
  /// `at`. Returns true (and records the breach) when a nonzero budget was
  /// exceeded.
  bool observe(const char* phase, hw::Cycles actual, std::uint32_t cpu,
               hw::Cycles at);

  std::uint64_t breaches() const { return breaches_; }

 private:
  struct Entry {
    const char* phase;
    hw::Cycles budget;
  };
  std::vector<Entry> entries_;
  std::uint64_t breaches_ = 0;
};

}  // namespace mercury::obs
