// Conservative co-simulation: several kernels, each on its own machine,
// stepped on one shared simulated timeline (the netperf peer pair, the
// cluster fabric's nodes).
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "kernel/kernel.hpp"

namespace mercury::kernel {

/// Step `kernels` until pred() holds or the furthest clock has advanced
/// `budget` cycles. Each round steps the earliest kernel, its idle-clock
/// advancement clamped to the runner-up's clock plus the 20 µs link
/// lookahead, so no event from another kernel can land in its past. If it
/// cannot progress (parked at the clamp, or fully idle), the others are
/// tried in clock order, earliest first, until one progresses; if none
/// can, the earliest is released past the clamp. `step(i)`, when given,
/// steps kernels[i] in place of kernels[i]->step() (the fabric wraps each
/// node's step in its attribution scopes). Allocates nothing per round.
bool co_step(std::span<Kernel* const> kernels,
             const std::function<bool()>& pred, hw::Cycles budget,
             const std::function<bool(std::size_t)>& step = {});

}  // namespace mercury::kernel
