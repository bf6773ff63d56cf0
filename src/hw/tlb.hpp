// Hardware-managed translation lookaside buffer.
//
// Fixed capacity, FIFO replacement (deterministic). On x86 the TLB is
// flushed on CR3 writes — which is exactly why Xen-style designs keep VMM,
// kernel and user in one address space; the model reproduces that cost.
//
// The entries and the FIFO victim pointer are the model; an exact
// open-addressed vpn → slot index over the valid entries only saves the
// host the linear scan. It changes no simulated outcome.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/pte.hpp"
#include "hw/types.hpp"

namespace mercury::hw {

struct TlbEntry {
  std::uint32_t vpn = 0;
  Pfn pfn = 0;
  bool writable = false;
  bool user = false;
  bool global = false;
  bool vmm_only = false;
  bool dirty = false;  // write-hits on a non-dirty entry re-walk (x86 A/D)
  bool valid = false;
};

class Tlb {
 public:
  explicit Tlb(std::size_t capacity = 64);

  std::optional<TlbEntry> lookup(std::uint32_t vpn);
  void insert(std::uint32_t vpn, const Pte& pte);

  /// CR3 reload semantics: drop all non-global entries.
  void flush_all();
  /// Full flush including global entries (mode switches reload everything).
  void flush_global();
  void flush_page(std::uint32_t vpn);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t flushes() const { return flushes_; }
  std::size_t capacity() const { return entries_.size(); }
  std::size_t valid_entries() const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  std::size_t home(std::uint32_t vpn) const;
  /// Index position holding `vpn`'s slot, or index_.size() when not cached.
  std::size_t find(std::uint32_t vpn) const;
  /// Drop index position `pos` (linear probing, backward-shift deletion:
  /// later members of the probe run move up, so no tombstones are needed).
  void unindex(std::size_t pos);

  std::vector<TlbEntry> entries_;
  std::size_t next_victim_ = 0;
  // Power-of-two table of entry slots, kept at ≥ 4× capacity so probe
  // runs stay short; holds exactly the valid entries.
  std::vector<std::uint32_t> index_;
  unsigned shift_ = 0;  // 32 - log2(index_.size()), for Fibonacci hashing
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t flushes_ = 0;
};

}  // namespace mercury::hw
