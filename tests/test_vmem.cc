// Tests for virtual memory classes: placement and translation rules.
#include <gtest/gtest.h>

#include <set>
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

/// True when every byte of the line at `va_line` translates linearly.
bool line_is_linear(const VMem& vm, VAddr va_line, unsigned cpu) {
  const PAddr base = vm.translate(va_line, cpu);
  for (VAddr k = 1; k < kLineBytes; ++k) {
    if (vm.translate(va_line + k, cpu) != base + k) return false;
  }
  return true;
}

/// Checks translate_line() against translate() on every byte of every line
/// in [va, va + bytes), from `cpu`, and returns how many lines were
/// reported uniform.
unsigned check_translate_line(const VMem& vm, VAddr va, std::uint64_t bytes,
                              unsigned cpu) {
  unsigned uniform_lines = 0;
  for (VAddr line = va; line < va + bytes; line += kLineBytes) {
    const bool linear = line_is_linear(vm, line, cpu);
    for (VAddr b = line; b < line + kLineBytes; ++b) {
      bool uniform = !linear;
      EXPECT_EQ(vm.translate_line(b, cpu, &uniform), vm.translate(b, cpu))
          << "va " << b << " cpu " << cpu;
      EXPECT_EQ(uniform, linear) << "va " << b << " cpu " << cpu;
    }
    if (linear) ++uniform_lines;
  }
  return uniform_lines;
}

TEST(VMem, TranslateLineMatchesTranslateForEveryClass) {
  VMem vm(topo4());
  const std::uint64_t bytes = 3 * kPageBytes;
  const VAddr regions[] = {
      vm.allocate(bytes, MemClass::kThreadPrivate, "tp"),
      vm.allocate(bytes, MemClass::kNodePrivate, "np"),
      vm.allocate(bytes, MemClass::kNearShared, "ns", 2),
      vm.allocate(bytes, MemClass::kFarShared, "fs"),
      vm.allocate(bytes, MemClass::kBlockShared, "bs", 0, 4 * kLineBytes),
  };
  for (const VAddr va : regions) {
    for (const unsigned cpu : {0u, 9u, 31u}) {
      // Lines straddling each page boundary and the region's last line
      // are included; with line-multiple interleaves every line is uniform.
      EXPECT_EQ(check_translate_line(vm, va, bytes, cpu),
                bytes / kLineBytes);
    }
  }
}

TEST(VMem, TranslateLineFlagsRaggedBlockLines) {
#ifndef NDEBUG
  GTEST_SKIP() << "allocate() asserts line-multiple blocks in debug builds";
#else
  // Release builds tolerate a block size that is not a line multiple; a
  // line that straddles a block boundary then maps to two FUs.
  for (const std::uint64_t block : {48ull, 8ull, 5ull}) {
    VMem vm(Topology{.nodes = 1});
    const VAddr va = vm.allocate(kPageBytes, MemClass::kBlockShared,
                                 "ragged", 0, block);
    const unsigned uniform = check_translate_line(vm, va, kPageBytes, 3);
    EXPECT_LT(uniform, kPageBytes / kLineBytes) << "block " << block;
  }
#endif
}

/// Records the physical address of every cached access.
struct PaRecorder : MemObserver {
  std::vector<PAddr> pas;
  void on_access(const MemEvent& ev) override { pas.push_back(ev.pa); }
};

TEST(VMem, MachineTranslatesEveryByteLikeTranslate) {
  // The machine's translation MRU may replay a line only when the whole
  // line maps linearly; per-byte accesses must still see translate()'s PA.
  // (A ragged block size exercises a non-uniform line in release builds.)
#ifdef NDEBUG
  const std::uint64_t block = 48;
#else
  const std::uint64_t block = 2 * kLineBytes;
#endif
  Machine m(Topology{.nodes = 2});
  const VAddr bs = m.vm().allocate(kPageBytes, MemClass::kBlockShared, "bs", 0,
                                   block);
  const VAddr fs = m.vm().allocate(kPageBytes, MemClass::kFarShared, "fs");
  PaRecorder rec;
  m.set_observer(&rec);
  std::vector<PAddr> want;
  sim::Time t = 0;
  for (const VAddr base : {bs, fs}) {
    for (VAddr va = base; va < base + 8 * kLineBytes; ++va) {
      want.push_back(m.vm().translate(va, 5));
      t = m.access(5, va, (va & 1) != 0, t);
    }
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
