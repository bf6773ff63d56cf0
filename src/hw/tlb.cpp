#include "hw/tlb.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace mercury::hw {

namespace {

TlbEntry make_entry(std::uint32_t vpn, const Pte& pte) {
  return TlbEntry{vpn,          pte.pfn(),      pte.writable(), pte.user(),
                  pte.global(), pte.vmm_only(), pte.dirty(),    true};
}

}  // namespace

Tlb::Tlb(std::size_t capacity)
    : entries_(capacity), index_(std::bit_ceil(4 * capacity), kNoSlot) {
  MERC_CHECK(capacity > 0 && capacity < kNoSlot / 4);
  shift_ = 32 - static_cast<unsigned>(std::countr_zero(index_.size()));
}

std::size_t Tlb::home(std::uint32_t vpn) const {
  return static_cast<std::uint32_t>(vpn * 0x9E3779B1u) >> shift_;
}

std::size_t Tlb::find(std::uint32_t vpn) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(vpn);; i = (i + 1) & mask) {
    if (index_[i] == kNoSlot) return index_.size();
    if (entries_[index_[i]].vpn == vpn) return i;
  }
}

void Tlb::unindex(std::size_t pos) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = pos;
  for (std::size_t i = (pos + 1) & mask; index_[i] != kNoSlot;
       i = (i + 1) & mask) {
    // Move i into the hole unless its home lies cyclically in (hole, i].
    const std::size_t h = home(entries_[index_[i]].vpn);
    if (((i - h) & mask) >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = kNoSlot;
}

std::optional<TlbEntry> Tlb::lookup(std::uint32_t vpn) {
  const std::size_t pos = find(vpn);
  if (pos != index_.size()) {
    ++hits_;
    return entries_[index_[pos]];
  }
  ++misses_;
  return std::nullopt;
}

void Tlb::insert(std::uint32_t vpn, const Pte& pte) {
  // Replace an existing mapping for the same vpn in place if present.
  const std::size_t pos = find(vpn);
  if (pos != index_.size()) {
    entries_[index_[pos]] = make_entry(vpn, pte);
    return;
  }
  const std::size_t slot = next_victim_;
  next_victim_ = (next_victim_ + 1) % entries_.size();
  auto& victim = entries_[slot];
  if (victim.valid) unindex(find(victim.vpn));
  victim = make_entry(vpn, pte);
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(vpn);
  while (index_[i] != kNoSlot) i = (i + 1) & mask;
  index_[i] = static_cast<std::uint32_t>(slot);
}

void Tlb::flush_all() {
  ++flushes_;
  for (auto& e : entries_) {
    if (e.valid && !e.global) {
      unindex(find(e.vpn));
      e.valid = false;
    }
  }
}

void Tlb::flush_global() {
  ++flushes_;
  for (auto& e : entries_) e.valid = false;
  std::fill(index_.begin(), index_.end(), kNoSlot);
}

void Tlb::flush_page(std::uint32_t vpn) {
  const std::size_t pos = find(vpn);
  if (pos == index_.size()) return;
  entries_[index_[pos]].valid = false;
  unindex(pos);
}

std::size_t Tlb::valid_entries() const {
  std::size_t n = 0;
  for (const auto& e : entries_)
    if (e.valid) ++n;
  return n;
}

}  // namespace mercury::hw
