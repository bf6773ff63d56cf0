// Who runs the bulk phases of an adoption or release (paper §5.1.2). The
// switch engine passes its rendezvous-parked SwitchCrew
// (core/switch_crew.hpp); every other caller a CpuRunner for its own CPU.
#pragma once

#include <cstddef>
#include <functional>

#include "hw/cpu.hpp"

namespace mercury::vmm {

/// Shard body: run items [begin, end) on `cpu`, charging its clock.
using ShardFn = std::function<void(hw::Cpu&, std::size_t, std::size_t)>;

class PhaseRunner {
 public:
  /// Run `fn` over [0, items), returning once every item is done. `name`
  /// keys the runner's telemetry; a shard that throws aborts the phase.
  virtual void run_phase(const char* name, std::size_t items,
                         const ShardFn& fn) = 0;

 protected:
  ~PhaseRunner() = default;
};

/// The whole phase as one shard on one CPU: no queue, no join, no telemetry.
class CpuRunner final : public PhaseRunner {
 public:
  explicit CpuRunner(hw::Cpu& cpu) : cpu_(cpu) {}

  void run_phase(const char* /*name*/, std::size_t items,
                 const ShardFn& fn) override {
    if (items > 0) fn(cpu_, 0, items);
  }

 private:
  hw::Cpu& cpu_;
};

}  // namespace mercury::vmm
