#include "obs/slo.hpp"

#include <cstring>

#include "obs/obs.hpp"
#include "util/log.hpp"

namespace mercury::obs {

void SloWatchdog::set_budget(const char* phase, hw::Cycles budget) {
  for (Entry& e : entries_) {
    if (std::strcmp(e.phase, phase) == 0) {
      e.budget = budget;
      return;
    }
  }
  entries_.push_back(Entry{phase, budget});
}

hw::Cycles SloWatchdog::budget(const char* phase) const {
  for (const Entry& e : entries_)
    if (std::strcmp(e.phase, phase) == 0) return e.budget;
  return 0;
}

bool SloWatchdog::observe(const char* phase, hw::Cycles actual,
                          std::uint32_t cpu, hw::Cycles at) {
  const hw::Cycles b = budget(phase);
  if (b == 0 || actual <= b) return false;
  ++breaches_;
  MERC_COUNT("switch.slo.breaches");
#if MERCURY_OBS_ENABLED
  event_ring().record(cpu, EventType::kSloBreach, phase, at, actual, b);
#else
  (void)cpu;
  (void)at;
#endif
  util::log_warn("slo", "budget breach: ", phase, " ran ", actual,
                 " cycles against a budget of ", b);
  return true;
}

}  // namespace mercury::obs
