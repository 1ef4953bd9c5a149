// Regression tests for the wall-clock fast paths (docs/PERFORMANCE.md):
// the page-indexed home directory, the fiber conductor backend's
// bit-exactness against the OS-thread backend, and the pvm message buffer
// pre-sizing.  None of these may change simulated time or counters; the
// digest comparisons here are the oracle that they do not.
#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "spp/arch/machine.h"
#include "spp/lib/psort.h"
#include "spp/pvm/pvm.h"
#include "spp/rt/conductor.h"
#include "spp/rt/garray.h"
#include "spp/rt/loops.h"
#include "spp/rt/runtime.h"
#include "spp/sim/rng.h"

namespace spp {
namespace {

using arch::Topology;

// ---------------------------------------------------------------------------
// Directory churn at machine level, cross-checked against dir_view
// ---------------------------------------------------------------------------

TEST(HomeDirectory, ChurnAcrossNodesKeepsInvariants) {
  // Drive enough distinct lines through enough CPUs on two hypernodes that
  // the directory sees sustained fill / evict churn (a deliberately tiny
  // gcache makes SCI entries recycle constantly), then verify the protocol
  // invariants and directory view for a sweep of lines.
  arch::CostModel cm;
  cm.gcache_bytes = 64 * arch::kLineBytes;
  rt::Runtime runtime(Topology{.nodes = 2}, cm);
  const std::size_t n = 1u << 15;
  rt::GlobalArray<double> a(runtime, n, arch::MemClass::kFarShared, "churn.a");
  rt::GlobalArray<double> b(runtime, n, arch::MemClass::kFarShared, "churn.b");
  runtime.run([&] {
    rt::parallel_for(runtime, n, 16, rt::Placement::kUniform,
                     rt::LoopOptions{}, [&](std::size_t i) {
                       a.write(i, static_cast<double>(i));
                       b.accumulate(i ^ (n - 1), 1.0);
                       if ((i & 7u) == 0) a.read(n - 1 - i);
                     });
  });
  arch::Machine& m = runtime.machine();
  auto line_at = [&](arch::VAddr va) {
    return arch::line_of(m.vm().translate(va, 0));
  };
  unsigned present = 0;
  for (std::size_t i = 0; i < n; i += 16) {
    ASSERT_TRUE(m.check_line_invariants(a.vaddr(i))) << "a line at " << i;
    ASSERT_TRUE(m.check_line_invariants(b.vaddr(i))) << "b line at " << i;
    const auto dv = m.dir_view(line_at(a.vaddr(i)));
    if (dv.present) {
      ++present;
      // A present entry is non-empty by construction: some sharer, owner,
      // or remote state must justify its existence.
      EXPECT_TRUE(dv.cpu_sharers != 0 || dv.owner_cpu >= 0 ||
                  dv.remote_dirty || !dv.sci_list.empty())
          << "empty-but-present entry for a line at " << i;
    }
  }
  EXPECT_GT(present, 0u) << "churn must leave live directory entries behind";
  EXPECT_GT(m.perf().gcache_evictions, 0u)
      << "working set must overflow the gcaches for this test to bite";

  // A power cycle drops every directory block: nothing reads present.
  m.power_cycle();
  for (std::size_t i = 0; i < n; i += 16) {
    ASSERT_FALSE(m.dir_view(line_at(a.vaddr(i))).present) << "a line at " << i;
    ASSERT_FALSE(m.dir_view(line_at(b.vaddr(i))).present) << "b line at " << i;
  }
}

TEST(HomeDirectory, LineReadsAbsentOnceItsLastCopyIsEvicted) {
  // Entries are never erased; an entry whose last L1 and gcache copies are
  // gone must still read as absent.
  arch::CostModel cm;
  cm.gcache_bytes = 4 * arch::kLineBytes;  // 4 sets: easy conflicts.
  arch::Machine m(Topology{.nodes = 2}, cm);
  auto line_at = [&](arch::VAddr va) {
    return arch::line_of(m.vm().translate(va, 0));
  };
  sim::Time t = 0;

  // Local home: written by cpu 0, read by cpu 1 (both node 0), then both
  // L1s are flushed.
  const arch::VAddr local =
      m.vm().allocate(arch::kPageBytes, arch::MemClass::kNearShared, "l", 0);
  t = m.access(0, local, true, t);
  t = m.access(1, local, false, t);
  ASSERT_TRUE(m.dir_view(line_at(local)).present);
  m.flush_l1(0);
  EXPECT_TRUE(m.dir_view(line_at(local)).present) << "cpu 1 still shares";
  m.flush_l1(1);
  EXPECT_FALSE(m.dir_view(line_at(local)).present);

  // Remote home: node 0 (cpu 0) reads a line homed on node 1.  Flushing the
  // L1 leaves the node's gcache copy on the SCI list; conflicting remote
  // fills then evict the gcache entry too.
  const arch::VAddr remote = m.vm().allocate(
      64 * arch::kPageBytes, arch::MemClass::kNearShared, "r", 1);
  const arch::LineAddr line = line_at(remote);
  const unsigned ring =
      m.topo().ring_of_fu(arch::home_fu_of(arch::line_base(line)));
  t = m.access(0, remote, false, t);
  m.flush_l1(0);
  ASSERT_TRUE(m.gcache(0, ring).present(line));
  EXPECT_TRUE(m.dir_view(line).present) << "the gcache copy is listed";
  for (unsigned k = 1; k <= 64 && m.gcache(0, ring).present(line); ++k) {
    t = m.access(2, remote + k * 4 * arch::kLineBytes, false, t);
  }
  ASSERT_FALSE(m.gcache(0, ring).present(line));
  EXPECT_FALSE(m.dir_view(line).present);
}

// ---------------------------------------------------------------------------
// Fiber backend vs OS-thread backend: bit-exact simulation
// ---------------------------------------------------------------------------

struct RunDigest {
  sim::Time elapsed = 0;
  std::uint64_t digest = 0;
};

/// Conductor-switch-heavy sync microbenchmark (dynamic loop scheduling).
RunDigest sync_micro(rt::ConductorBackend be) {
  rt::Runtime runtime(Topology{.nodes = 2}, arch::CostModel{}, be);
  rt::LoopOptions opts;
  opts.schedule = rt::Schedule::kDynamic;
  opts.chunk = 8;
  runtime.run([&] {
    rt::parallel_for(runtime, 2048, 16, rt::Placement::kUniform, opts,
                     [&](std::size_t i) {
                       runtime.work_flops(20.0 + static_cast<double>(i) * 0.5);
                     });
  });
  return {runtime.elapsed(),
          runtime.machine().perf().digest(runtime.elapsed())};
}

/// Small real application (barriers, shared scratch, streaming memory).
RunDigest small_app(rt::ConductorBackend be) {
  rt::Runtime runtime(Topology{.nodes = 2}, arch::CostModel{}, be);
  rt::GlobalArray<double> data(runtime, 2048, arch::MemClass::kFarShared,
                               "sort.bitexact");
  sim::Rng rng(1234);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.raw(i) = rng.uniform(-1, 1);
  }
  lib::parallel_sort(runtime, data, 8, rt::Placement::kUniform);
  EXPECT_TRUE(std::is_sorted(&data.raw(0), &data.raw(0) + data.size()));
  return {runtime.elapsed(),
          runtime.machine().perf().digest(runtime.elapsed())};
}

TEST(Conductor, FibersVsThreadsBitExact) {
  if (!rt::fibers_available()) {
    GTEST_SKIP() << "fiber backend not available in this build";
  }
  const RunDigest micro_f = sync_micro(rt::ConductorBackend::kFibers);
  const RunDigest micro_t = sync_micro(rt::ConductorBackend::kThreads);
  EXPECT_EQ(micro_f.elapsed, micro_t.elapsed);
  EXPECT_EQ(micro_f.digest, micro_t.digest)
      << "sync micro: whole-PerfCounters digests must be bit-identical";

  const RunDigest app_f = small_app(rt::ConductorBackend::kFibers);
  const RunDigest app_t = small_app(rt::ConductorBackend::kThreads);
  EXPECT_EQ(app_f.elapsed, app_t.elapsed);
  EXPECT_EQ(app_f.digest, app_t.digest)
      << "psort app: whole-PerfCounters digests must be bit-identical";
}

TEST(Conductor, RepeatRunsDigestIdentically) {
  // Same backend twice: digests depend only on the workload, never on host
  // scheduling or allocator state.
  const RunDigest a = sync_micro(rt::default_conductor_backend());
  const RunDigest b = sync_micro(rt::default_conductor_backend());
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.digest, b.digest);
}

// ---------------------------------------------------------------------------
// pvm::Message buffer pre-sizing
// ---------------------------------------------------------------------------

TEST(PvmMessage, PreSizedPackDoesNotReallocate) {
  pvm::Message m;
  m.reserve(128 * sizeof(double));
  const std::size_t cap = m.capacity_bytes();
  ASSERT_GE(cap, 128 * sizeof(double));
  for (int i = 0; i < 128; ++i) {
    const double v = static_cast<double>(i) * 1.5;
    m.pack(&v, 1);  // element-at-a-time, the common app pattern.
  }
  EXPECT_EQ(m.capacity_bytes(), cap)
      << "pack() must not reallocate a pre-sized payload";
  EXPECT_EQ(m.size_bytes(), 128 * sizeof(double));
  for (int i = 0; i < 128; ++i) {
    double v = 0;
    m.unpack(&v, 1);
    ASSERT_EQ(v, static_cast<double>(i) * 1.5) << "element " << i;
  }
  EXPECT_EQ(m.remaining(), 0u);
}

TEST(PvmMessage, UnsizedPackGrowsGeometrically) {
  // Element-at-a-time packing without reserve() must stay amortized O(1):
  // capacity only ever doubles, so the number of distinct capacities seen
  // over N elements is O(log N), not O(N).
  pvm::Message m;
  std::size_t last_cap = m.capacity_bytes();
  unsigned growths = 0;
  for (int i = 0; i < 4096; ++i) {
    const double v = 0.5;
    m.pack(&v, 1);
    if (m.capacity_bytes() != last_cap) {
      ++growths;
      last_cap = m.capacity_bytes();
    }
  }
  EXPECT_LE(growths, 20u) << "pack growth must be geometric, not linear";
}

}  // namespace
}  // namespace spp
