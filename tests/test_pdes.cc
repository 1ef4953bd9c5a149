// Tests for the sharded PDES engine (docs/PERFORMANCE.md, "Sharded PDES
// backend"): deterministic cross-shard event ordering, digest invariance
// across worker counts (including home-directory growth inside parallel
// phases), and watchdog supervision of multi-worker phases.
//
// The engine's contract is that the number of worker threads carrying the
// shards is a pure host-side detail: every simulated observable --
// PerfCounters::digest above all -- is bit-identical at --shards 1, 2, and
// 4, and identical to the sequential fiber backend.  These tests are the
// in-tree half of that guarantee; the sppsim-bench --backend both leg and
// the committed BENCH_pdes_*.json baselines are the tool half.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "spp/apps/fem/femgas.h"
#include "spp/apps/nbody/nbody.h"
#include "spp/apps/nbody/nbody_pvm.h"
#include "spp/apps/ppm/ppm.h"
#include "spp/arch/topology.h"
#include "spp/pdes/event.h"
#include "spp/rt/conductor.h"
#include "spp/rt/garray.h"
#include "spp/rt/runtime.h"
#include "spp/rt/watchdog.h"

namespace spp {
namespace {

using arch::Topology;

// --- EventKey tie-breaking -------------------------------------------------

TEST(PdesEventKey, TimestampDominates) {
  const pdes::EventKey early{.ts = 10, .shard = 3, .seq = 99};
  const pdes::EventKey late{.ts = 11, .shard = 0, .seq = 0};
  EXPECT_LT(early, late);
  EXPECT_FALSE(late < early);
}

TEST(PdesEventKey, SameTimestampBreaksOnShardId) {
  // Two shards defer at the same simulated instant: the lower shard id
  // replays first, regardless of which worker queued first on the host.
  const pdes::EventKey s1{.ts = 42, .shard = 1, .seq = 7};
  const pdes::EventKey s2{.ts = 42, .shard = 2, .seq = 0};
  EXPECT_LT(s1, s2);
  EXPECT_FALSE(s2 < s1);
}

TEST(PdesEventKey, SameShardBreaksOnSequence) {
  // Same shard, same timestamp: the shard's own dispatch order (the
  // per-shard monotonic seq) is preserved, i.e. program order.
  const pdes::EventKey a{.ts = 42, .shard = 1, .seq = 7};
  const pdes::EventKey b{.ts = 42, .shard = 1, .seq = 8};
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE((a == pdes::EventKey{.ts = 42, .shard = 1, .seq = 7}));
}

TEST(PdesEventKey, TotalOrderIsStrict) {
  const std::vector<pdes::EventKey> keys = {
      {.ts = 5, .shard = 2, .seq = 1}, {.ts = 5, .shard = 2, .seq = 0},
      {.ts = 5, .shard = 0, .seq = 9}, {.ts = 4, .shard = 3, .seq = 0},
      {.ts = 6, .shard = 0, .seq = 0},
  };
  for (const auto& a : keys) {
    EXPECT_FALSE(a < a);
    for (const auto& b : keys) {
      if (a == b) continue;
      EXPECT_NE(a < b, b < a);
    }
  }
}

// --- digest invariance across shard counts ---------------------------------

std::uint64_t nbody_digest(rt::ConductorBackend be, unsigned shards) {
  rt::Runtime rt(Topology{.nodes = 4}, arch::CostModel{}, be);
  if (shards != 0) rt.conductor().set_workers(shards);
  nbody::NbodyConfig cfg;
  cfg.n = 192;
  cfg.steps = 2;
  nbody::NbodyShared nb(rt, cfg, 16, rt::Placement::kUniform);
  rt.run([&] { (void)nb.run(); });
  return rt.machine().perf().digest(rt.elapsed());
}

std::uint64_t ppm_digest(rt::ConductorBackend be, unsigned shards) {
  rt::Runtime rt(Topology{.nodes = 4}, arch::CostModel{}, be);
  if (shards != 0) rt.conductor().set_workers(shards);
  ppm::PpmConfig cfg;
  cfg.nx = 24;
  cfg.ny = 24;
  cfg.tiles_x = 4;
  cfg.tiles_y = 4;
  cfg.steps = 3;
  ppm::PpmTiled ppm(rt, cfg, 16, rt::Placement::kUniform);
  ppm.init_blast(3.0, 4.0);
  rt.run([&] { (void)ppm.run(); });
  return rt.machine().perf().digest(rt.elapsed());
}

TEST(PdesDigest, NbodyInvariantAcrossShardCounts) {
  const std::uint64_t w1 = nbody_digest(rt::ConductorBackend::kPdes, 1);
  const std::uint64_t w2 = nbody_digest(rt::ConductorBackend::kPdes, 2);
  const std::uint64_t w4 = nbody_digest(rt::ConductorBackend::kPdes, 4);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w4);
  // And identical to the sequential reference backends.
  EXPECT_EQ(w1, nbody_digest(rt::ConductorBackend::kThreads, 0));
  if (rt::fibers_available()) {
    EXPECT_EQ(w1, nbody_digest(rt::ConductorBackend::kFibers, 0));
  }
}

TEST(PdesDigest, PpmInvariantAcrossShardCounts) {
  const std::uint64_t w1 = ppm_digest(rt::ConductorBackend::kPdes, 1);
  const std::uint64_t w2 = ppm_digest(rt::ConductorBackend::kPdes, 2);
  const std::uint64_t w4 = ppm_digest(rt::ConductorBackend::kPdes, 4);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w4);
  EXPECT_EQ(w1, ppm_digest(rt::ConductorBackend::kThreads, 0));
  if (rt::fibers_available()) {
    EXPECT_EQ(w1, ppm_digest(rt::ConductorBackend::kFibers, 0));
  }
}

// Two hypernodes with threads dealt across both, as Figure 7 runs at
// np >= 9: the unstructured gathers cross nodes inside parallel phases.
std::uint64_t fem_digest(rt::ConductorBackend be, unsigned shards) {
  rt::Runtime rt(Topology{.nodes = 2}, arch::CostModel{}, be);
  if (shards != 0) rt.conductor().set_workers(shards);
  fem::FemConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.steps = 3;
  fem::FemGas app(rt, cfg, 12, rt::Placement::kUniform);
  app.init_blast(2.0, 3.0);
  rt.run([&] { (void)app.run(); });
  return rt.machine().perf().digest(rt.elapsed());
}

TEST(PdesDigest, FemInvariantAcrossShardCounts) {
  const std::uint64_t w1 = fem_digest(rt::ConductorBackend::kPdes, 1);
  EXPECT_EQ(w1, fem_digest(rt::ConductorBackend::kPdes, 2));
  EXPECT_EQ(w1, fem_digest(rt::ConductorBackend::kPdes, 4));
  EXPECT_EQ(w1, fem_digest(rt::ConductorBackend::kThreads, 0));
  if (rt::fibers_available()) {
    EXPECT_EQ(w1, fem_digest(rt::ConductorBackend::kFibers, 0));
  }
}

// Repeated runs at the same shard count are also bit-stable (no hidden host
// nondeterminism leaking through the queues).
TEST(PdesDigest, RepeatedRunsAreBitStable) {
  const std::uint64_t a = nbody_digest(rt::ConductorBackend::kPdes, 4);
  const std::uint64_t b = nbody_digest(rt::ConductorBackend::kPdes, 4);
  EXPECT_EQ(a, b);
}

std::uint64_t nbody_pvm_digest(rt::ConductorBackend be, unsigned shards) {
  rt::Runtime rt(Topology{.nodes = 4}, arch::CostModel{}, be);
  if (shards != 0) rt.conductor().set_workers(shards);
  nbody::NbodyConfig cfg;
  cfg.n = 192;
  cfg.steps = 2;
  nbody::NbodyPvm nb(rt, cfg, 16, rt::Placement::kUniform);
  rt.run([&] { (void)nb.run(); });
  return rt.machine().perf().digest(rt.elapsed());
}

// Each PVM task finds its id on its own simulated thread.  A shared
// per-thread table, grown by tasks while other shards' workers read it,
// once aborted a 4-shard run with "pvm: not inside a task".  Repeated
// 4-shard runs of the PVM tree code must all finish with one digest, the
// sequential backends' digest; the tsan leg runs this test too.
TEST(PdesDigest, NbodyPvmRepeatsBitStableAtFourShards) {
  const std::uint64_t first = nbody_pvm_digest(rt::ConductorBackend::kPdes, 4);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(nbody_pvm_digest(rt::ConductorBackend::kPdes, 4), first)
        << "repeat " << k;
  }
  EXPECT_EQ(first, nbody_pvm_digest(rt::ConductorBackend::kThreads, 0));
  if (rt::fibers_available()) {
    EXPECT_EQ(first, nbody_pvm_digest(rt::ConductorBackend::kFibers, 0));
  }
}

// --- home directory blocks first touched inside parallel phases -------------

struct ChurnRun {
  std::uint64_t digest = 0;
  std::uint64_t l1_evictions = 0;
};

// L1s of 4 KB against two 128 KB FarShared arrays.  Each thread sweeps the
// pages homed on its own node (FarShared deals pages round-robin across
// nodes), so the phase workers run long stretches without gating while
// each allocates home-directory page blocks in its own node's tables and
// evicts and refills lines there.  A last sweep reads the next node's
// pages, adding remote fills of lines whose blocks already exist.
ChurnRun miss_churn(rt::ConductorBackend be, unsigned shards) {
  arch::CostModel cm;
  cm.l1_bytes = 4 * 1024;
  const Topology topo{.nodes = 4};
  rt::Runtime rt(topo, cm, be);
  if (shards != 0) rt.conductor().set_workers(shards);
  const std::size_t n = 1u << 14;
  const std::size_t per_page = arch::kPageBytes / sizeof(double);
  const std::size_t per_line = arch::kLineBytes / sizeof(double);
  rt::GlobalArray<double> a(rt, n, arch::MemClass::kFarShared, "churn.a");
  rt::GlobalArray<double> b(rt, n, arch::MemClass::kFarShared, "churn.b");
  rt.run([&] {
    rt.parallel(16, rt::Placement::kUniform, [&](unsigned tid, unsigned) {
      const unsigned node = topo.node_of_cpu(rt.cpu());
      const std::size_t stripe = tid / topo.nodes;  // 4 threads per node.
      for (unsigned pass = 0; pass < 3; ++pass) {
        const unsigned home = pass < 2 ? node : (node + 1) % topo.nodes;
        for (std::size_t i = 0; i < n; ++i) {
          if ((i / per_page) % topo.nodes != home) continue;
          if ((i / per_line) % 4 != stripe) continue;
          if (pass < 2) {
            a.write(i, b.read(i) + 1.0);
          } else {
            (void)a.read(i);
          }
        }
      }
    });
  });
  return {rt.machine().perf().digest(rt.elapsed()),
          rt.machine().perf().l1_evictions};
}

// Directory blocks created concurrently by the phase workers must not make
// the digest depend on how many workers carry the shards; the tsan leg runs
// this test too.
TEST(PdesDigest, MissChurnInvariantAcrossShardCounts) {
  const ChurnRun w1 = miss_churn(rt::ConductorBackend::kPdes, 1);
  EXPECT_GT(w1.l1_evictions, std::uint64_t{1} << 14)
      << "the arrays must overflow the L1s for this test to bite";
  EXPECT_EQ(w1.digest, miss_churn(rt::ConductorBackend::kPdes, 2).digest);
  EXPECT_EQ(w1.digest, miss_churn(rt::ConductorBackend::kPdes, 4).digest);
  EXPECT_EQ(w1.digest, miss_churn(rt::ConductorBackend::kThreads, 0).digest);
  if (rt::fibers_available()) {
    EXPECT_EQ(w1.digest, miss_churn(rt::ConductorBackend::kFibers, 0).digest);
  }
}

// --- watchdog under the sharded engine -------------------------------------

// Conductor::progress() sums the per-shard dispatch slots, so a run whose
// dispatching happens on shard workers (not the coordinator) still reads as
// live.  A watchdog with a generous budget must stay silent across several
// poll periods while 4 workers carry the phases; if progress() only counted
// coordinator dispatches it would false-stall here (the coordinator mostly
// sleeps at the fusion rendezvous during a phase).
TEST(PdesWatchdog, SumsShardProgressWithoutFalseStall) {
  rt::Runtime rt(Topology{.nodes = 4}, arch::CostModel{},
                 rt::ConductorBackend::kPdes);
  rt.conductor().set_workers(4);
  rt::Watchdog dog(rt.conductor(), /*stall_seconds=*/60.0);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t rounds = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < 0.35) {
    rt.run([&] {
      rt.parallel(16, rt::Placement::kUniform,
                  [&](unsigned, unsigned) { rt.work_flops(500); });
    });
    ++rounds;
  }
  EXPECT_GT(rounds, 0u);
  // Every dispatch on every shard worker is visible to the supervisor.
  EXPECT_GT(rt.conductor().progress(), rounds);
}

}  // namespace
}  // namespace spp
