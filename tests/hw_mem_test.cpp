#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "hw/frame_alloc.hpp"
#include "hw/phys_mem.hpp"
#include "util/assert.hpp"

namespace mercury::hw {
namespace {

TEST(PhysicalMemory, ZeroInitialized) {
  PhysicalMemory mem(1024);
  EXPECT_EQ(mem.read_u32(0x1234), 0u);
  EXPECT_EQ(mem.read_u8(4096 * 100 + 7), 0u);
}

TEST(PhysicalMemory, ReadBackWrites) {
  PhysicalMemory mem(1024);
  mem.write_u32(0x1000, 0xDEADBEEF);
  mem.write_u8(0x2000, 0x7F);
  mem.write_u64(0x3000, 0x1122334455667788ull);
  EXPECT_EQ(mem.read_u32(0x1000), 0xDEADBEEFu);
  EXPECT_EQ(mem.read_u8(0x2000), 0x7Fu);
  EXPECT_EQ(mem.read_u64(0x3000), 0x1122334455667788ull);
}

TEST(PhysicalMemory, SparseBackingMaterializesOnWrite) {
  PhysicalMemory mem(1 << 18);  // 1 GB worth of frames
  EXPECT_EQ(mem.resident_chunks(), 0u);
  mem.write_u32(addr_of(1000), 1);
  EXPECT_EQ(mem.resident_chunks(), 1u);
  (void)mem.read_u32(addr_of(200000));  // read does not materialize
  EXPECT_EQ(mem.resident_chunks(), 1u);
}

TEST(PhysicalMemory, BulkBytesAcrossChunks) {
  PhysicalMemory mem(1024);
  std::vector<std::uint8_t> in(300000, 0xAB);
  mem.write_bytes(100, in);
  std::vector<std::uint8_t> out(300000);
  mem.read_bytes(100, out);
  EXPECT_EQ(in, out);
}

TEST(PhysicalMemory, FrameCopyAndZero) {
  PhysicalMemory mem(64);
  mem.write_u32(addr_of(3) + 40, 99);
  mem.copy_frame(5, 3);
  EXPECT_EQ(mem.read_u32(addr_of(5) + 40), 99u);
  mem.zero_frame(5);
  EXPECT_EQ(mem.read_u32(addr_of(5) + 40), 0u);
}

TEST(PhysicalMemory, CopyFromUnmaterializedZeroes) {
  PhysicalMemory mem(256);
  mem.write_u32(addr_of(9), 7);
  mem.copy_frame(9, 200);  // src never written
  EXPECT_EQ(mem.read_u32(addr_of(9)), 0u);
}

struct RecordingSink : DirtySink {
  std::vector<Pfn> noted;
  void note_dirty(Pfn pfn) override { noted.push_back(pfn); }
};

TEST(PhysicalMemory, FrameViewIsEmptyUntilMaterialized) {
  PhysicalMemory mem(256);
  EXPECT_TRUE(mem.frame_view(70).empty());
  mem.write_u32(addr_of(70) + 12, 0xC0FFEE);
  const auto view = mem.frame_view(70);
  ASSERT_EQ(view.size(), kPageSize);
  std::uint32_t v = 0;
  std::memcpy(&v, view.data() + 12, sizeof(v));
  EXPECT_EQ(v, 0xC0FFEEu);
  EXPECT_EQ(mem.frame_view(71).size(), kPageSize);  // same chunk: zero bytes
  EXPECT_TRUE(mem.frame_view(200).empty());
}

TEST(PhysicalMemory, CopyFromNonResidentSourceNotesButDoesNotMaterialize) {
  PhysicalMemory src(256), dst(256);
  RecordingSink sink;
  dst.set_dirty_sink(&sink);
  dst.copy_frame_from(src, 5, 130);
  EXPECT_EQ(dst.resident_chunks(), 0u);
  EXPECT_EQ(sink.noted, std::vector<Pfn>{130});
  EXPECT_EQ(src.resident_chunks(), 0u);
  dst.set_dirty_sink(nullptr);
}

TEST(PhysicalMemory, CopyFromNonResidentSourceZeroesResidentDestination) {
  PhysicalMemory src(256), dst(256);
  dst.write_u64(addr_of(9) + 64, 0x1122334455667788ull);
  dst.write_u32(addr_of(10), 3);  // neighbour in the same chunk
  dst.copy_frame_from(src, 200, 9);
  EXPECT_EQ(dst.read_u64(addr_of(9) + 64), 0u);
  EXPECT_EQ(dst.read_u32(addr_of(10)), 3u);
  EXPECT_EQ(dst.resident_chunks(), 1u);
  EXPECT_EQ(src.resident_chunks(), 0u);
}

TEST(PhysicalMemory, CopyFromResidentSourceCopiesBytes) {
  PhysicalMemory src(256), dst(512);
  for (std::uint32_t off = 0; off < kPageSize; off += 4)
    src.write_u32(addr_of(17) + off, off * 2654435761u);
  RecordingSink sink;
  dst.set_dirty_sink(&sink);
  dst.copy_frame_from(src, 17, 300);
  dst.set_dirty_sink(nullptr);
  EXPECT_EQ(sink.noted, std::vector<Pfn>{300});
  std::vector<std::uint8_t> want(kPageSize), got(kPageSize);
  src.read_bytes(addr_of(17), want);
  dst.read_bytes(addr_of(300), got);
  EXPECT_EQ(got, want);
  EXPECT_EQ(dst.resident_chunks(), 1u);
}

TEST(PhysicalMemory, OutOfRangeIsInvariantError) {
  PhysicalMemory mem(16);
  EXPECT_THROW(mem.read_u32(addr_of(16)), util::InvariantError);
  EXPECT_THROW(mem.write_u8(addr_of(20), 1), util::InvariantError);
}

TEST(FrameAllocator, AllocatesDistinctFrames) {
  FrameAllocator fa(64);
  std::set<Pfn> seen;
  Pfn f = 0;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(fa.alloc(f));
    EXPECT_TRUE(seen.insert(f).second) << "duplicate frame " << f;
  }
  EXPECT_FALSE(fa.alloc(f)) << "allocated beyond capacity";
}

TEST(FrameAllocator, FreeMakesReusable) {
  FrameAllocator fa(4);
  Pfn f[4];
  for (auto& x : f) ASSERT_TRUE(fa.alloc(x));
  fa.free(f[2]);
  Pfn again = 0;
  ASSERT_TRUE(fa.alloc(again));
  EXPECT_EQ(again, f[2]);
}

TEST(FrameAllocator, DoubleFreeIsInvariantError) {
  FrameAllocator fa(4);
  Pfn f = 0;
  ASSERT_TRUE(fa.alloc(f));
  fa.free(f);
  EXPECT_THROW(fa.free(f), util::InvariantError);
}

TEST(FrameAllocator, ReserveRangeExcludedFromAllocation) {
  FrameAllocator fa(32);
  fa.reserve_range(0, 16);
  Pfn f = 0;
  while (fa.alloc(f)) EXPECT_GE(f, 16u);
  EXPECT_EQ(fa.frames_in_use(), 32u);
}

TEST(FrameAllocator, ContiguousAllocation) {
  FrameAllocator fa(64);
  Pfn first = 0;
  ASSERT_TRUE(fa.alloc_contiguous(10, first));
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(fa.is_allocated(first + i));
  Pfn second = 0;
  ASSERT_TRUE(fa.alloc_contiguous(10, second));
  EXPECT_TRUE(second >= first + 10 || second + 10 <= first);
}

TEST(FrameAllocator, ContiguousFailsWhenFragmented) {
  FrameAllocator fa(8);
  fa.reserve_range(3, 1);  // split the space into runs of 3 and 4
  Pfn f = 0;
  EXPECT_FALSE(fa.alloc_contiguous(5, f));
  EXPECT_TRUE(fa.alloc_contiguous(4, f));
}

TEST(FrameAllocator, Counters) {
  FrameAllocator fa(10);
  EXPECT_EQ(fa.frames_free(), 10u);
  Pfn f = 0;
  fa.alloc(f);
  EXPECT_EQ(fa.frames_in_use(), 1u);
  EXPECT_EQ(fa.frames_free(), 9u);
}

}  // namespace
}  // namespace mercury::hw
