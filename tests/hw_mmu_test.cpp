// PTE / TLB / MMU walker tests, including a randomized property check of the
// hardware walker against a straightforward reference translator.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/mmu.hpp"
#include "hw/phys_mem.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mercury::hw {
namespace {

struct NullSink : TrapSink {
  int traps = 0;
  TrapInfo last{};
  void on_trap(Cpu&, const TrapInfo& info) override {
    ++traps;
    last = info;
  }
};

/// Test fixture with a tiny machine: PD at frame 1, one L1 at frame 2.
class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : mem(4096), mmu(mem), cpu(0, 8) {
    cpu.install_trap_sink(&sink);
    cpu.set_cpl(Ring::kRing0);
    cpu.write_cr3(1);
    sink.traps = 0;  // ignore boot noise
  }

  void map_l1(std::uint32_t pde_idx, Pfn l1, bool user = true) {
    mem.write_u32(addr_of(1) + pde_idx * 4, make_pte(l1, true, user).raw);
  }
  void map_page(Pfn l1, std::uint32_t pte_idx, Pfn frame, bool writable,
                bool user, bool vmm_only = false) {
    Pte pte = make_pte(frame, writable, user);
    pte.set_flag(Pte::kVmmOnly, vmm_only);
    mem.write_u32(addr_of(l1) + pte_idx * 4, pte.raw);
  }

  PhysicalMemory mem;
  Mmu mmu;
  Cpu cpu;
  NullSink sink;
};

TEST(Pte, BitAccessors) {
  Pte p = make_pte(0x1234, true, false, true);
  EXPECT_TRUE(p.present());
  EXPECT_TRUE(p.writable());
  EXPECT_FALSE(p.user());
  EXPECT_TRUE(p.global());
  EXPECT_EQ(p.pfn(), 0x1234u);
  p.set_flag(Pte::kWritable, false);
  EXPECT_FALSE(p.writable());
  p.set_pfn(0x4321);
  EXPECT_EQ(p.pfn(), 0x4321u);
  EXPECT_FALSE(p.writable()) << "set_pfn must preserve flags";
}

TEST(SegmentSelectorTest, RplRoundTrip) {
  SegmentSelector s = make_selector(kGdtKernelCs, Ring::kRing1);
  EXPECT_EQ(s.rpl(), Ring::kRing1);
  EXPECT_EQ(s.index(), kGdtKernelCs);
  s.set_rpl(Ring::kRing0);
  EXPECT_EQ(s.rpl(), Ring::kRing0);
  EXPECT_EQ(s.index(), kGdtKernelCs);
}

TEST(TlbTest, InsertLookupFlush) {
  Tlb tlb(4);
  Pte pte = make_pte(77, true, true);
  tlb.insert(5, pte);
  auto hit = tlb.lookup(5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->pfn, 77u);
  EXPECT_TRUE(hit->writable);
  tlb.flush_page(5);
  EXPECT_FALSE(tlb.lookup(5).has_value());
}

TEST(TlbTest, FifoEvictionAtCapacity) {
  Tlb tlb(2);
  tlb.insert(1, make_pte(1, true, true));
  tlb.insert(2, make_pte(2, true, true));
  tlb.insert(3, make_pte(3, true, true));  // evicts vpn 1
  EXPECT_FALSE(tlb.lookup(1).has_value());
  EXPECT_TRUE(tlb.lookup(2).has_value());
  EXPECT_TRUE(tlb.lookup(3).has_value());
}

TEST(TlbTest, GlobalEntriesSurviveFlushAll) {
  Tlb tlb(4);
  tlb.insert(1, make_pte(1, true, true, /*global=*/true));
  tlb.insert(2, make_pte(2, true, true, /*global=*/false));
  tlb.flush_all();
  EXPECT_TRUE(tlb.lookup(1).has_value());
  EXPECT_FALSE(tlb.lookup(2).has_value());
  tlb.flush_global();
  EXPECT_FALSE(tlb.lookup(1).has_value());
}

TEST(TlbTest, ReinsertSameVpnUpdatesInPlace) {
  Tlb tlb(4);
  tlb.insert(9, make_pte(1, false, true));
  tlb.insert(9, make_pte(2, true, true));
  auto hit = tlb.lookup(9);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->pfn, 2u);
  EXPECT_EQ(tlb.valid_entries(), 1u);
}

/// The linear-scan FIFO TLB the indexed hw::Tlb must reproduce exactly:
/// same victims, same in-place re-insert, same flush semantics, same counters.
class ScanTlb {
 public:
  explicit ScanTlb(std::size_t capacity) : entries_(capacity) {}

  std::optional<TlbEntry> lookup(std::uint32_t vpn) {
    for (const auto& e : entries_) {
      if (e.valid && e.vpn == vpn) {
        ++hits;
        return e;
      }
    }
    ++misses;
    return std::nullopt;
  }
  void insert(std::uint32_t vpn, const Pte& pte) {
    const TlbEntry fresh{vpn,          pte.pfn(),      pte.writable(), pte.user(),
                         pte.global(), pte.vmm_only(), pte.dirty(),    true};
    for (auto& e : entries_) {
      if (e.valid && e.vpn == vpn) {
        e = fresh;
        return;
      }
    }
    entries_[next_victim_] = fresh;
    next_victim_ = (next_victim_ + 1) % entries_.size();
  }
  void flush_all() {
    ++flushes;
    for (auto& e : entries_)
      if (!e.global) e.valid = false;
  }
  void flush_global() {
    ++flushes;
    for (auto& e : entries_) e.valid = false;
  }
  void flush_page(std::uint32_t vpn) {
    for (auto& e : entries_)
      if (e.valid && e.vpn == vpn) e.valid = false;
  }
  std::size_t valid_entries() const {
    std::size_t n = 0;
    for (const auto& e : entries_) n += e.valid ? 1 : 0;
    return n;
  }

  std::uint64_t hits = 0, misses = 0, flushes = 0;

 private:
  std::vector<TlbEntry> entries_;
  std::size_t next_victim_ = 0;
};

void expect_same_entry(const std::optional<TlbEntry>& got,
                       const std::optional<TlbEntry>& want,
                       const std::string& ctx) {
  ASSERT_EQ(got.has_value(), want.has_value()) << ctx;
  if (!got) return;
  EXPECT_EQ(got->vpn, want->vpn) << ctx;
  EXPECT_EQ(got->pfn, want->pfn) << ctx;
  EXPECT_EQ(got->writable, want->writable) << ctx;
  EXPECT_EQ(got->user, want->user) << ctx;
  EXPECT_EQ(got->global, want->global) << ctx;
  EXPECT_EQ(got->vmm_only, want->vmm_only) << ctx;
  EXPECT_EQ(got->dirty, want->dirty) << ctx;
  EXPECT_TRUE(got->valid) << ctx;
}

class TlbDifferentialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TlbDifferentialTest, IndexedTlbMatchesLinearScanFifo) {
  const std::size_t cap = GetParam();
  util::Rng rng(0x71B0000ull + cap);
  Tlb tlb(cap);
  ScanTlb ref(cap);
  // Mostly a working set a few times the capacity (hits, re-inserts and
  // evictions all common), plus scattered vpns across the 20-bit space.
  const std::uint64_t hot = 3 * cap + 5;
  auto draw_vpn = [&] {
    return static_cast<std::uint32_t>(rng.chance(0.9) ? rng.below(hot)
                                                      : rng.below(1u << 20));
  };
  for (int step = 0; step < 20000; ++step) {
    const std::string ctx =
        "capacity " + std::to_string(cap) + " step " + std::to_string(step);
    const std::uint64_t op = rng.below(100);
    if (op < 40) {
      const std::uint32_t vpn = draw_vpn();
      Pte pte = make_pte(static_cast<Pfn>(rng.below(1u << 20)), rng.chance(0.5),
                         rng.chance(0.5), rng.chance(0.2));
      pte.set_flag(Pte::kVmmOnly, rng.chance(0.1));
      pte.set_flag(Pte::kDirty, rng.chance(0.3));
      tlb.insert(vpn, pte);
      ref.insert(vpn, pte);
    } else if (op < 85) {
      const std::uint32_t vpn = draw_vpn();
      expect_same_entry(tlb.lookup(vpn), ref.lookup(vpn), ctx);
    } else if (op < 96) {
      const std::uint32_t vpn = draw_vpn();
      tlb.flush_page(vpn);
      ref.flush_page(vpn);
    } else if (op < 99) {
      tlb.flush_all();
      ref.flush_all();
    } else {
      tlb.flush_global();
      ref.flush_global();
    }
    ASSERT_EQ(tlb.hits(), ref.hits) << ctx;
    ASSERT_EQ(tlb.misses(), ref.misses) << ctx;
    ASSERT_EQ(tlb.flushes(), ref.flushes) << ctx;
    ASSERT_EQ(tlb.valid_entries(), ref.valid_entries()) << ctx;
    if (HasFailure()) return;
  }
  // Every cached vpn must still be reachable through the index.
  for (std::uint32_t vpn = 0; vpn < hot; ++vpn)
    expect_same_entry(tlb.lookup(vpn), ref.lookup(vpn), "final sweep");
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbDifferentialTest,
                         ::testing::Values(1, 2, 63, 64, 256));

TEST_F(MmuTest, TranslateSimpleMapping) {
  map_l1(0, 2);
  map_page(2, 5, 100, true, true);
  const VirtAddr va = 5 * kPageSize + 123;
  auto pa = mmu.translate(cpu, va, Access::kRead);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(*pa, addr_of(100) + 123);
}

TEST_F(MmuTest, NotPresentFaults) {
  map_l1(0, 2);
  PageFault pf;
  EXPECT_FALSE(mmu.translate(cpu, 7 * kPageSize, Access::kRead, &pf).has_value());
  EXPECT_FALSE(pf.present);
}

TEST_F(MmuTest, MissingDirectoryFaults) {
  PageFault pf;
  EXPECT_FALSE(
      mmu.translate(cpu, 0x40000000, Access::kRead, &pf).has_value());
}

TEST_F(MmuTest, WriteToReadOnlyFaults) {
  map_l1(0, 2);
  map_page(2, 5, 100, /*writable=*/false, true);
  PageFault pf;
  EXPECT_TRUE(mmu.translate(cpu, 5 * kPageSize, Access::kRead, &pf).has_value());
  EXPECT_FALSE(mmu.translate(cpu, 5 * kPageSize, Access::kWrite, &pf).has_value());
  EXPECT_TRUE(pf.present);
  EXPECT_TRUE(pf.write);
}

TEST_F(MmuTest, UserBitEnforcedAtRing3) {
  map_l1(0, 2);
  map_page(2, 5, 100, true, /*user=*/false);
  cpu.set_cpl(Ring::kRing3);
  PageFault pf;
  EXPECT_FALSE(mmu.translate(cpu, 5 * kPageSize, Access::kRead, &pf).has_value());
  cpu.set_cpl(Ring::kRing0);
  EXPECT_TRUE(mmu.translate(cpu, 5 * kPageSize, Access::kRead).has_value());
}

TEST_F(MmuTest, VmmOnlyBlocksRing1ButNotRing0) {
  map_l1(0, 2, /*user=*/true);
  map_page(2, 5, 100, true, false, /*vmm_only=*/true);
  cpu.set_cpl(Ring::kRing1);
  EXPECT_FALSE(mmu.translate(cpu, 5 * kPageSize, Access::kRead).has_value());
  cpu.set_cpl(Ring::kRing0);
  EXPECT_TRUE(mmu.translate(cpu, 5 * kPageSize, Access::kRead).has_value());
}

TEST_F(MmuTest, PermissionsCombineAcrossLevels) {
  // PDE read-only gates the whole 4 MB region.
  mem.write_u32(addr_of(1) + 0, make_pte(2, /*writable=*/false, true).raw);
  map_page(2, 5, 100, /*writable=*/true, true);
  EXPECT_FALSE(mmu.translate(cpu, 5 * kPageSize, Access::kWrite).has_value());
  EXPECT_TRUE(mmu.translate(cpu, 5 * kPageSize, Access::kRead).has_value());
}

TEST_F(MmuTest, AccessedAndDirtyBitsSet) {
  map_l1(0, 2);
  map_page(2, 5, 100, true, true);
  (void)mmu.translate(cpu, 5 * kPageSize, Access::kRead);
  Pte pte{mem.read_u32(addr_of(2) + 5 * 4)};
  EXPECT_TRUE(pte.accessed());
  EXPECT_FALSE(pte.dirty());
  (void)mmu.translate(cpu, 5 * kPageSize, Access::kWrite);
  pte = Pte{mem.read_u32(addr_of(2) + 5 * 4)};
  EXPECT_TRUE(pte.dirty());
}

TEST_F(MmuTest, StaleTlbPermissionRecheckedViaWalk) {
  map_l1(0, 2);
  map_page(2, 5, 100, true, true);
  (void)mmu.translate(cpu, 5 * kPageSize, Access::kWrite);  // cached writable
  // Downgrade in memory without flushing.
  map_page(2, 5, 100, /*writable=*/false, true);
  // TLB still says writable; hardware must not allow a write based on a
  // stale *fail* — our model re-walks when the TLB says no.
  auto hit = mmu.translate(cpu, 5 * kPageSize, Access::kWrite);
  // With the stale TLB entry the write is (incorrectly from the OS's view)
  // still permitted — exactly why kernels must flush after downgrades.
  EXPECT_TRUE(hit.has_value());
  cpu.tlb().flush_page(5);
  EXPECT_FALSE(mmu.translate(cpu, 5 * kPageSize, Access::kWrite).has_value());
}

TEST_F(MmuTest, RaiseTrapDeliversToSink) {
  map_l1(0, 2);
  // translate_or_fault raises through the CPU; the sink here does not fix
  // the fault, so the retry loop trips the livelock invariant.
  EXPECT_THROW(mmu.translate_or_fault(cpu, 9 * kPageSize, Access::kRead),
               util::InvariantError);
  EXPECT_GT(sink.traps, 0);
  EXPECT_EQ(sink.last.kind, TrapKind::kPageFault);
  EXPECT_EQ(sink.last.fault_addr, 9 * kPageSize);
}

TEST_F(MmuTest, TranslationChargesCycles) {
  map_l1(0, 2);
  map_page(2, 5, 100, true, true);
  const Cycles before = cpu.now();
  (void)mmu.translate(cpu, 5 * kPageSize, Access::kRead);  // cold: walk
  const Cycles walk_cost = cpu.now() - before;
  const Cycles before2 = cpu.now();
  (void)mmu.translate(cpu, 5 * kPageSize, Access::kRead);  // warm: TLB hit
  const Cycles hit_cost = cpu.now() - before2;
  EXPECT_GT(walk_cost, hit_cost);
}

TEST_F(MmuTest, MemoryAccessorsReadWrite) {
  map_l1(0, 2);
  map_page(2, 5, 100, true, true);
  mmu.write_u32(cpu, 5 * kPageSize + 16, 0xFEEDFACE);
  EXPECT_EQ(mmu.read_u32(cpu, 5 * kPageSize + 16), 0xFEEDFACEu);
  mmu.write_u8(cpu, 5 * kPageSize + 100, 0x5A);
  EXPECT_EQ(mmu.read_u8(cpu, 5 * kPageSize + 100), 0x5Au);
}

TEST_F(MmuTest, PeekPteMatchesInstalled) {
  map_l1(0, 2);
  map_page(2, 7, 42, true, true);
  auto pte = mmu.peek_pte(cpu, 7 * kPageSize);
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->pfn(), 42u);
  EXPECT_FALSE(mmu.peek_pte(cpu, 8 * kPageSize).has_value());
}

// --- property test: hardware walker vs reference translator --------------------

struct RefModel {
  std::map<std::uint32_t, Pte> pages;  // vpn -> final pte

  std::optional<PhysAddr> translate(VirtAddr va, Access a, Ring cpl) const {
    auto it = pages.find(vpn_of(va));
    if (it == pages.end() || !it->second.present()) return std::nullopt;
    const Pte& p = it->second;
    if (cpl == Ring::kRing3 && !p.user()) return std::nullopt;
    if (cpl != Ring::kRing0 && p.vmm_only()) return std::nullopt;
    if (a == Access::kWrite && !p.writable()) return std::nullopt;
    return addr_of(p.pfn()) + page_offset(va);
  }
};

class MmuPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MmuPropertyTest, WalkerAgreesWithReferenceModel) {
  PhysicalMemory mem(8192);
  Mmu mmu(mem);
  Cpu cpu(0, 16);
  NullSink sink;
  cpu.install_trap_sink(&sink);
  cpu.write_cr3(1);

  util::Rng rng(GetParam());
  RefModel ref;

  // Random page tables: 4 L1s under PDEs 0..3, random mappings.
  const Pfn l1s[4] = {2, 3, 4, 5};
  for (int d = 0; d < 4; ++d)
    mem.write_u32(addr_of(1) + d * 4, make_pte(l1s[d], true, true).raw);
  for (int i = 0; i < 400; ++i) {
    const std::uint32_t pde = static_cast<std::uint32_t>(rng.below(4));
    const std::uint32_t idx = static_cast<std::uint32_t>(rng.below(kPtEntries));
    Pte pte;
    if (rng.chance(0.8)) {
      pte = make_pte(static_cast<Pfn>(rng.between(100, 4000)), rng.chance(0.6),
                     rng.chance(0.7));
      pte.set_flag(Pte::kVmmOnly, rng.chance(0.1));
    }
    mem.write_u32(addr_of(l1s[pde]) + idx * 4, pte.raw);
    ref.pages[pde * kPtEntries + idx] = pte;
  }

  for (int i = 0; i < 2000; ++i) {
    const VirtAddr va = static_cast<VirtAddr>(rng.below(4 * (1u << 22)));
    const Access a = rng.chance(0.5) ? Access::kRead : Access::kWrite;
    const Ring cpl = rng.chance(0.33)   ? Ring::kRing0
                     : rng.chance(0.5) ? Ring::kRing1
                                       : Ring::kRing3;
    cpu.set_cpl(cpl);
    // Note: the MMU sets A/D bits, which the reference ignores; and the TLB
    // may carry entries inserted under a different CPL, so flush per probe
    // for exact agreement.
    cpu.tlb().flush_global();
    const auto got = mmu.translate(cpu, va, a);
    const auto want = ref.translate(va, a, cpl);
    ASSERT_EQ(got.has_value(), want.has_value())
        << "va=0x" << std::hex << va << " write=" << (a == Access::kWrite)
        << " cpl=" << static_cast<int>(cpl);
    if (got) {
      EXPECT_EQ(*got, *want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MmuPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace mercury::hw
