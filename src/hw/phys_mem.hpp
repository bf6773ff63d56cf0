// Simulated physical memory.
//
// Backing storage is sparse (allocated in 64-page chunks on first write) so
// that a paper-scale 900 000 KB machine can be instantiated without claiming
// 900 MB of host RAM. Reads of never-written memory return zero bytes, which
// models cleared RAM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hw/pte.hpp"
#include "hw/types.hpp"

namespace mercury::hw {

class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::size_t total_frames);

  std::size_t total_frames() const { return total_frames_; }
  PhysAddr size_bytes() const { return addr_of(static_cast<Pfn>(total_frames_)); }

  std::uint8_t read_u8(PhysAddr pa) const;
  std::uint32_t read_u32(PhysAddr pa) const;
  std::uint64_t read_u64(PhysAddr pa) const;
  void write_u8(PhysAddr pa, std::uint8_t v);
  void write_u32(PhysAddr pa, std::uint32_t v);
  void write_u64(PhysAddr pa, std::uint64_t v);

  void read_bytes(PhysAddr pa, std::span<std::uint8_t> out) const;
  void write_bytes(PhysAddr pa, std::span<const std::uint8_t> in);

  /// Zero an entire frame (models a streaming clear; cost is charged by the
  /// caller via the cost model).
  void zero_frame(Pfn pfn);

  /// Copy a whole frame.
  void copy_frame(Pfn dst, Pfn src);

  /// Read-only view of one frame's bytes; empty when the frame's chunk was
  /// never materialized (the frame reads as zero).
  std::span<const std::uint8_t> frame_view(Pfn pfn) const;

  /// Copy frame `src` of `from` (which may be this memory) into frame `dst`.
  /// A never-materialized source clears `dst` exactly as zero_frame does:
  /// the store is noted, and no backing is created for it.
  void copy_frame_from(const PhysicalMemory& from, Pfn src, Pfn dst);

  /// Number of backing chunks actually materialized (test/diagnostic hook).
  std::size_t resident_chunks() const;

  /// Install (or clear, with nullptr) a dirty-frame observer. Every store
  /// path notifies the sink with each frame it touches; the sink outlives
  /// the registration (callers must clear it before destroying the sink).
  void set_dirty_sink(DirtySink* sink) { dirty_sink_ = sink; }
  DirtySink* dirty_sink() const { return dirty_sink_; }

 private:
  void note_write(PhysAddr pa) {
    if (dirty_sink_) dirty_sink_->note_dirty(pfn_of(pa));
  }
  static constexpr std::size_t kChunkPages = 64;
  static constexpr std::size_t kChunkBytes = kChunkPages * kPageSize;

  std::span<std::uint8_t> chunk_for(PhysAddr pa, bool create);
  std::span<const std::uint8_t> chunk_for(PhysAddr pa) const;

  std::size_t total_frames_;
  mutable std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  DirtySink* dirty_sink_ = nullptr;
};

}  // namespace mercury::hw
