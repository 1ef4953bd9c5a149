// Tests for virtual memory classes: placement and translation rules.
#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <stdexcept>
#include <vector>

#include "spp/arch/address.h"
#include "spp/arch/cache.h"
#include "spp/arch/machine.h"
#include "spp/arch/observer.h"
#include "spp/arch/topology.h"
#include "spp/arch/vmem.h"
#include "spp/sci/gcache.h"

namespace spp::arch {
namespace {

Topology topo4() { return Topology{.nodes = 4}; }

TEST(VMem, ThreadPrivateIsolation) {
  VMem vm(topo4());
  const VAddr va = vm.allocate(kPageBytes, MemClass::kThreadPrivate, "tp");
  std::set<PAddr> seen;
  for (unsigned cpu = 0; cpu < topo4().num_cpus(); ++cpu) {
    const PAddr pa = vm.translate(va, cpu);
    EXPECT_TRUE(seen.insert(pa).second)
        << "cpu " << cpu << " aliases another thread's private instance";
    // The instance lives in the accessor's own FU.
    EXPECT_EQ(home_fu_of(pa), topo4().fu_of_cpu(cpu));
  }
}

TEST(VMem, NodePrivatePerNodeInstances) {
  VMem vm(topo4());
  const VAddr va = vm.allocate(4 * kPageBytes, MemClass::kNodePrivate, "np");
  // CPUs of the same node share; CPUs of different nodes do not.
  EXPECT_TRUE(vm.shared_between(va, 0, 7));    // both node 0
  EXPECT_FALSE(vm.shared_between(va, 0, 8));   // node 0 vs node 1
  EXPECT_TRUE(vm.shared_between(va, 8, 15));   // both node 1
  // Instance pages stay in the owner's node.
  for (unsigned cpu : {0u, 9u, 17u, 30u}) {
    for (unsigned p = 0; p < 4; ++p) {
      const PAddr pa = vm.translate(va + p * kPageBytes, cpu);
      EXPECT_EQ(topo4().node_of_fu(home_fu_of(pa)), topo4().node_of_cpu(cpu));
    }
  }
}

TEST(VMem, NearSharedLivesOnHomeNode) {
  VMem vm(topo4());
  const VAddr va =
      vm.allocate(8 * kPageBytes, MemClass::kNearShared, "ns", /*home=*/2);
  std::set<unsigned> fus;
  for (unsigned p = 0; p < 8; ++p) {
    const PAddr pa = vm.translate(va + p * kPageBytes, /*cpu=*/0);
    EXPECT_EQ(topo4().node_of_fu(home_fu_of(pa)), 2u);
    fus.insert(home_fu_of(pa));
  }
  // Page-interleaved across all 4 FUs of node 2.
  EXPECT_EQ(fus.size(), 4u);
  // Same physical address for every accessor.
  EXPECT_TRUE(vm.shared_between(va, 0, 31));
}

TEST(VMem, FarSharedRoundRobinOverNodes) {
  VMem vm(topo4());
  const VAddr va = vm.allocate(16 * kPageBytes, MemClass::kFarShared, "fs");
  for (unsigned p = 0; p < 16; ++p) {
    const PAddr pa = vm.translate(va + p * kPageBytes, 0);
    EXPECT_EQ(topo4().node_of_fu(home_fu_of(pa)), p % 4)
        << "page " << p << " not round-robin across hypernodes";
  }
  EXPECT_TRUE(vm.shared_between(va, 3, 28));
}

TEST(VMem, BlockSharedUsesBlockGranularity) {
  VMem vm(topo4());
  const std::uint64_t blk = 2 * kPageBytes;
  const VAddr va = vm.allocate(8 * blk, MemClass::kBlockShared, "bs", 0, blk);
  for (unsigned b = 0; b < 8; ++b) {
    // Both pages of a block land on the same node.
    const PAddr pa0 = vm.translate(va + b * blk, 0);
    const PAddr pa1 = vm.translate(va + b * blk + kPageBytes, 0);
    EXPECT_EQ(topo4().node_of_fu(home_fu_of(pa0)),
              topo4().node_of_fu(home_fu_of(pa1)));
    EXPECT_EQ(topo4().node_of_fu(home_fu_of(pa0)), b % 4);
  }
}

TEST(VMem, DistinctRegionsDoNotOverlapPhysically) {
  VMem vm(topo4());
  const VAddr a = vm.allocate(64 * kPageBytes, MemClass::kFarShared, "a");
  const VAddr b = vm.allocate(64 * kPageBytes, MemClass::kFarShared, "b");
  std::set<PAddr> pas;
  for (unsigned p = 0; p < 64; ++p) {
    ASSERT_TRUE(pas.insert(vm.translate(a + p * kPageBytes, 0)).second);
    ASSERT_TRUE(pas.insert(vm.translate(b + p * kPageBytes, 0)).second);
  }
}

TEST(VMem, OffsetWithinPagePreserved) {
  VMem vm(topo4());
  const VAddr va = vm.allocate(4 * kPageBytes, MemClass::kFarShared, "x");
  const PAddr base = vm.translate(va, 0);
  EXPECT_EQ(vm.translate(va + 24, 0), base + 24);
  EXPECT_EQ(vm.translate(va + kPageBytes - 1, 0), base + kPageBytes - 1);
}

TEST(VMem, UnmappedAddressThrows) {
  VMem vm(topo4());
  EXPECT_THROW(vm.translate(0, 0), std::out_of_range);
  const VAddr va = vm.allocate(kPageBytes, MemClass::kFarShared, "y");
  EXPECT_THROW(vm.translate(va + 100 * kPageBytes, 0), std::out_of_range);
}

TEST(VMem, RegionLookup) {
  VMem vm(topo4());
  const VAddr va = vm.allocate(kPageBytes, MemClass::kNearShared, "tag", 1);
  const Region& r = vm.region_of(va + 100);
  EXPECT_EQ(r.label, "tag");
  EXPECT_EQ(r.home_node, 1u);
  EXPECT_EQ(r.mem_class, MemClass::kNearShared);
}

TEST(VMem, PhysicalWindowExhaustionThrows) {
  VMem vm(topo4());
  // Bookkeeping-only allocations: each FU window is 64 GB.
  for (int k = 0; k < 63; ++k) {
    vm.allocate(1ull << 30, MemClass::kFarShared, "big");
  }
  EXPECT_THROW(vm.allocate(2ull << 30, MemClass::kFarShared, "overflow"),
               std::runtime_error);
}

TEST(VMem, BlockSharedRejectsUnalignedBlocks) {
  VMem vm(topo4());
  // Block size must be a multiple of the line size (asserted in debug,
  // accepted sizes work).
  const VAddr ok = vm.allocate(kPageBytes, MemClass::kBlockShared, "ok", 0,
                               4 * kLineBytes);
  EXPECT_NE(ok, 0u);
}

TEST(VMem, LabelsSurviveInRegions) {
  VMem vm(topo4());
  vm.allocate(kPageBytes, MemClass::kFarShared, "alpha");
  vm.allocate(kPageBytes, MemClass::kNearShared, "beta", 2);
  ASSERT_EQ(vm.regions().size(), 2u);
  EXPECT_EQ(vm.regions()[0].label, "alpha");
  EXPECT_EQ(vm.regions()[1].label, "beta");
}

// --- page table vs. a reference translation --------------------------------

/// Reference translation, independent of the page table: a linear scan of
/// regions() and the placement rules of section 3.2 applied to the byte.
PAddr reference_translate(const VMem& vm, const Topology& t, VAddr va,
                          unsigned cpu) {
  for (const Region& r : vm.regions()) {
    if (va < r.base || va - r.base >= r.size) continue;
    const std::uint64_t off = va - r.base;
    const std::uint64_t page = off / kPageBytes;
    const unsigned fu_pos = static_cast<unsigned>(page % kFusPerNode);
    switch (r.mem_class) {
      case MemClass::kThreadPrivate:
        // The CPU's own FU; the FU's second CPU takes the next slot.
        return make_paddr(t.fu_of_cpu(cpu),
                          r.fu_base + (cpu % kCpusPerFu) * r.size + off);
      case MemClass::kNodePrivate:
        return make_paddr(t.fu_id(t.node_of_cpu(cpu), fu_pos),
                          r.fu_base + off);
      case MemClass::kNearShared:
        return make_paddr(t.fu_id(r.home_node, fu_pos), r.fu_base + off);
      case MemClass::kFarShared:
      case MemClass::kBlockShared: {
        const std::uint64_t unit = r.mem_class == MemClass::kFarShared
                                       ? kPageBytes
                                       : r.block_bytes;
        const std::uint64_t k = off / unit;
        const unsigned node = static_cast<unsigned>(k % t.nodes);
        const unsigned pos = static_cast<unsigned>(k / t.nodes % kFusPerNode);
        return make_paddr(t.fu_id(node, pos), r.fu_base + off);
      }
    }
  }
  throw std::out_of_range("reference: unmapped");
}

/// True when every byte of [va, va + bytes) maps linearly from `cpu`.
bool reference_linear(const VMem& vm, const Topology& t, VAddr va,
                      std::uint64_t bytes, unsigned cpu) {
  const PAddr base = reference_translate(vm, t, va, cpu);
  for (VAddr k = 1; k < bytes; ++k) {
    if (reference_translate(vm, t, va + k, cpu) != base + k) return false;
  }
  return true;
}

/// Compares translate() with the reference on the first and last byte of
/// every page and every region, from every CPU, on every byte of every
/// page from `byte_cpus`, and page_linear() with the reference's linearity
/// of each whole page.  Returns how many lines map non-linearly.
unsigned check_against_reference(const VMem& vm, const Topology& t,
                                 std::initializer_list<unsigned> byte_cpus) {
  unsigned split_lines = 0;
  for (const Region& r : vm.regions()) {
    const VAddr end = r.base + r.size;
    for (unsigned cpu = 0; cpu < t.num_cpus(); ++cpu) {
      // The region's first and last bytes are among these.
      for (VAddr page = r.base; page < end; page += kPageBytes) {
        for (const VAddr va : {page, page + kPageBytes - 1}) {
          EXPECT_EQ(vm.translate(va, cpu), reference_translate(vm, t, va, cpu))
              << r.label << " va " << va << " cpu " << cpu;
        }
      }
    }
    for (const unsigned cpu : byte_cpus) {
      for (VAddr page = r.base; page < end; page += kPageBytes) {
        EXPECT_EQ(vm.page_linear(page),
                  reference_linear(vm, t, page, kPageBytes, cpu))
            << r.label << " page " << page << " cpu " << cpu;
        for (VAddr va = page; va < page + kPageBytes; ++va) {
          if (vm.translate(va, cpu) != reference_translate(vm, t, va, cpu)) {
            ADD_FAILURE() << r.label << " va " << va << " cpu " << cpu;
            return ~0u;
          }
        }
        for (VAddr line = page; line < page + kPageBytes; line += kLineBytes) {
          if (!reference_linear(vm, t, line, kLineBytes, cpu)) ++split_lines;
        }
      }
    }
    EXPECT_EQ(&vm.region_of(r.base), &r);
    EXPECT_EQ(&vm.region_of(end - 1), &r);
  }
  return split_lines;
}

/// One region of every class, with BlockShared blocks of two pages, of four
/// lines, and of 1.5 pages (so some pages span two blocks).
VMem every_class(const Topology& t) {
  VMem vm(t);
  const std::uint64_t bytes = 3 * kPageBytes;
  vm.allocate(bytes, MemClass::kThreadPrivate, "tp");
  vm.allocate(bytes, MemClass::kNodePrivate, "np");
  vm.allocate(bytes, MemClass::kNearShared, "ns", 2);
  vm.allocate(bytes, MemClass::kFarShared, "fs");
  vm.allocate(5 * kPageBytes, MemClass::kFarShared, "fs5");
  vm.allocate(4 * kPageBytes, MemClass::kBlockShared, "bs_pages", 0,
              2 * kPageBytes);
  vm.allocate(bytes, MemClass::kBlockShared, "bs_lines", 0, 4 * kLineBytes);
  vm.allocate(bytes, MemClass::kBlockShared, "bs_1.5", 0,
              kPageBytes + kPageBytes / 2);
  return vm;
}

TEST(VMem, PageTableMatchesReferenceForEveryClass) {
  const Topology t = topo4();
  const VMem vm = every_class(t);
  // Line-multiple interleaves never split a line.
  EXPECT_EQ(check_against_reference(vm, t, {0u, 9u, 31u}), 0u);
  // Only pages that span more than one block are split: every page of the
  // four-line blocks, and the middle page of the 1.5-page blocks.
  for (const Region& r : vm.regions()) {
    for (unsigned p = 0; p < r.size / kPageBytes; ++p) {
      const bool split =
          r.label == "bs_lines" || (r.label == "bs_1.5" && p == 1);
      EXPECT_EQ(vm.page_linear(r.base + p * kPageBytes), !split)
          << r.label << " page " << p;
    }
  }
}

TEST(VMem, PageTableFlagsRaggedBlockLines) {
#ifndef NDEBUG
  GTEST_SKIP() << "allocate() asserts line-multiple blocks in debug builds";
#else
  // Release builds tolerate a block size that is not a line multiple; a
  // line that straddles a block boundary then maps to two FUs, and its page
  // must translate line by line.
  for (const std::uint64_t block : {48ull, 8ull, 5ull}) {
    const Topology t{.nodes = 1};
    VMem vm(t);
    const VAddr va = vm.allocate(kPageBytes, MemClass::kBlockShared,
                                 "ragged", 0, block);
    EXPECT_FALSE(vm.page_linear(va)) << "block " << block;
    EXPECT_GT(check_against_reference(vm, t, {3u}), 0u) << "block " << block;
  }
#endif
}

TEST(VMem, UnmappedPagesThrow) {
  const Topology t = topo4();
  VMem empty(t);
  for (const VAddr va : {VAddr{0}, VAddr{1}, kPageBytes - 1, kPageBytes}) {
    EXPECT_THROW(empty.translate(va, 0), std::out_of_range) << va;
    EXPECT_THROW(empty.region_of(va), std::out_of_range) << va;
    EXPECT_THROW(empty.page_linear(va), std::out_of_range) << va;
  }
  const VMem vm = every_class(t);
  const Region& last = vm.regions().back();
  const VAddr bump = last.base + last.size;
  for (const VAddr va : {VAddr{0}, kPageBytes - 1, bump, bump + kPageBytes,
                         ~VAddr{0}}) {
    for (const unsigned cpu : {0u, 31u}) {
      EXPECT_THROW(vm.translate(va, cpu), std::out_of_range) << va;
    }
    EXPECT_THROW(vm.region_of(va), std::out_of_range) << va;
    EXPECT_THROW(vm.page_linear(va), std::out_of_range) << va;
  }
  EXPECT_NO_THROW(vm.translate(kPageBytes, 0));
  EXPECT_NO_THROW(vm.translate(bump - 1, 31));
}

TEST(VMem, CopyAssignmentTranslatesIdentically) {
  // perfbench's shadow machine refreshes its map by assignment from the
  // primary's, over whatever it held before.
  const Topology t = topo4();
  const VMem primary = every_class(t);
  VMem copy(t);
  copy.allocate(7 * kPageBytes, MemClass::kNearShared, "stale", 1);
  copy = primary;
  ASSERT_EQ(copy.regions().size(), primary.regions().size());
  for (const Region& r : primary.regions()) {
    for (VAddr va = r.base; va < r.base + r.size; va += kLineBytes / 2) {
      for (const unsigned cpu : {0u, 13u, 31u}) {
        ASSERT_EQ(copy.translate(va, cpu), primary.translate(va, cpu))
            << r.label << " va " << va;
      }
      EXPECT_EQ(copy.region_of(va).label, r.label);
      EXPECT_EQ(copy.page_linear(va), primary.page_linear(va));
    }
  }
  EXPECT_EQ(check_against_reference(copy, t, {5u}), 0u);
  // The copy is independent: later allocations on either side diverge.
  VMem grown = primary;
  const VAddr extra = grown.allocate(kPageBytes, MemClass::kFarShared, "x");
  EXPECT_THROW(copy.translate(extra, 0), std::out_of_range);
  EXPECT_EQ(grown.translate(extra, 2), reference_translate(grown, t, extra, 2));
}

/// Records the physical address of every cached access.
struct PaRecorder : MemObserver {
  std::vector<PAddr> pas;
  void on_access(const MemEvent& ev) override { pas.push_back(ev.pa); }
};

TEST(VMem, MachineTranslatesEveryByteLikeReference) {
  // Per-byte access() and multi-page access_block() must both see the
  // reference PA of every byte and line base, on linear and split pages.
  // (A ragged block size exercises a split line in release builds.)
#ifdef NDEBUG
  const std::uint64_t block = 48;
#else
  const std::uint64_t block = 2 * kLineBytes;
#endif
  const Topology t{.nodes = 2};
  Machine m(t);
  const VAddr bs = m.vm().allocate(kPageBytes, MemClass::kBlockShared, "bs", 0,
                                   block);
  const VAddr fs = m.vm().allocate(kPageBytes, MemClass::kFarShared, "fs");
  const VAddr tp = m.vm().allocate(3 * kPageBytes, MemClass::kThreadPrivate,
                                   "tp");
  const VAddr np = m.vm().allocate(3 * kPageBytes, MemClass::kNodePrivate, "np");
  const VAddr b15 = m.vm().allocate(3 * kPageBytes, MemClass::kBlockShared,
                                    "b15", 0, kPageBytes + kPageBytes / 2);
  PaRecorder rec;
  m.set_observer(&rec);
  std::vector<PAddr> want;
  sim::Time time = 0;
  for (const VAddr base : {bs, fs}) {
    for (VAddr va = base; va < base + 8 * kLineBytes; ++va) {
      want.push_back(reference_translate(m.vm(), t, va, 5));
      time = m.access(5, va, (va & 1) != 0, time);
    }
  }
  // Blocks from mid-line to mid-line, crossing page boundaries.
  for (const VAddr base : {bs, fs, tp, np, b15}) {
    const VAddr region_end = m.vm().region_of(base).base +
                             m.vm().region_of(base).size;
    const VAddr from = base + 40;
    const std::uint64_t bytes = region_end - from - 24;
    for (VAddr line = from & ~(kLineBytes - 1); line < from + bytes;
         line += kLineBytes) {
      want.push_back(reference_translate(m.vm(), t, line, 12));
    }
    time = m.access_block(12, from, bytes, /*write=*/false, time);
  }
  m.set_observer(nullptr);
  EXPECT_EQ(rec.pas, want);
}

TEST(CacheEntries, HighestLineFitsThePackedField) {
  // The highest line any topology can name: the last byte of the last FU
  // window of a kMaxNodes machine.
  const Topology t{.nodes = kMaxNodes};
  const LineAddr top =
      line_of(make_paddr(t.num_fus() - 1, (1ull << kFuWindowBits) - 1));
  EXPECT_LT(top, L1Cache::kNoLine);
  EXPECT_LT(top, sci::GCache::kNoLine);
  EXPECT_EQ(top & kNoLineField, top);

  L1Cache l1;
  l1.install(top, LineState::kModified);
  EXPECT_EQ(l1.slot(top).line, top);
  EXPECT_EQ(l1.state_of(top), LineState::kModified);
  sci::GCache gc(1ull << 20, t.num_fus());
  sci::GCache::Entry& ge = gc.slot(top);
  ge.line = top & sci::GCache::kNoLine;
  ge.dirty = true;
  ge.cpu_sharers = 0x80;
  EXPECT_TRUE(gc.present(top));
  EXPECT_TRUE(gc.slot(top).dirty);
  EXPECT_EQ(gc.slot(top).cpu_sharers, 0x80);
}

TEST(CacheEntries, MachineCachesTheHighestReachableLine) {
  // Fill every FU window to near its end, then write and read the last
  // line of a NearShared region on the last node: its last page lands in
  // FU 63 at an offset just under 2^36.
  Machine m(Topology{.nodes = kMaxNodes});
  for (int k = 0; k < 62; ++k) {
    m.vm().allocate(1ull << 30, MemClass::kFarShared, "filler");
  }
  const std::uint64_t bytes = 1ull << 30;
  const VAddr va =
      m.vm().allocate(bytes, MemClass::kNearShared, "top", kMaxNodes - 1);
  const VAddr last = va + bytes - kLineBytes;
  const PAddr pa = m.vm().translate(last, 0);
  ASSERT_EQ(home_fu_of(pa), Topology{.nodes = kMaxNodes}.num_fus() - 1);
  const unsigned local = (kMaxNodes - 1) * kCpusPerNode;  // home node CPU
  sim::Time t = m.access(local, last, /*write=*/true, 0);
  EXPECT_EQ(m.l1_state(local, last), LineState::kModified);
  t = m.access(0, last, /*write=*/false, t);  // remote read: gcache install
  EXPECT_EQ(m.l1_state(0, last), LineState::kShared);
  EXPECT_EQ(m.l1_state(local, last), LineState::kShared);
  EXPECT_TRUE(m.gcache(0, m.topo().ring_of_fu(home_fu_of(pa)))
                  .present(line_of(pa)));
  EXPECT_TRUE(m.check_line_invariants(last));
}

TEST(Topology, IdMath) {
  Topology t{.nodes = 16};
  EXPECT_EQ(t.num_cpus(), 128u);
  EXPECT_EQ(t.num_fus(), 64u);
  EXPECT_EQ(t.node_of_cpu(127), 15u);
  EXPECT_EQ(t.fu_of_cpu(10), 5u);  // node 1, fu_in_node 1
  EXPECT_EQ(t.cpu_id(1, 1, 0), 10u);
  EXPECT_EQ(t.ring_of_fu(t.fu_id(7, 3)), 3u);
  EXPECT_EQ(t.ring_hops(0, 0), 0u);
  EXPECT_EQ(t.ring_hops(15, 0), 1u);
  EXPECT_EQ(t.ring_hops(0, 15), 15u);
}

}  // namespace
}  // namespace spp::arch
