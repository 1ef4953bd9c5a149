#include "replay.h"

#include <chrono>

namespace perfbench {

namespace {

// Events buffered before a replay batch: large enough that the clock reads
// around each batch are negligible, small enough (2 MiB) that the buffer
// does not grow with the run.
constexpr std::size_t kBatchEvents = std::size_t{1} << 16;

}  // namespace

ShadowReplay::ShadowReplay(spp::arch::Machine& primary,
                           const SpeedProbe& probe, std::uint64_t drop_event)
    : primary_(primary),
      probe_(probe),
      shadow_(primary.topo(), primary.cost()),
      drop_event_(drop_event) {
  batch_.reserve(kBatchEvents);
}

void ShadowReplay::on_access(const spp::arch::MemEvent& ev) {
  if (seen_++ == drop_event_) return;
  batch_.push_back(Event{
      .va = ev.va,
      .start = ev.start,
      .end = ev.end,
      .cpu = ev.cpu,
      .kind = ev.atomic ? Kind::kAtomic
                        : (ev.uncached ? Kind::kUncached : Kind::kCached),
      .write = ev.write});
  if (batch_.size() == kBatchEvents) flush();
}

void ShadowReplay::flush() {
  if (shadow_.vm().regions().size() != primary_.vm().regions().size()) {
    shadow_.vm() = primary_.vm();
  }
  std::uint64_t late = 0;
  const double in_probes = probe_.in_window_s();
  const auto t0 = std::chrono::steady_clock::now();
  for (const Event& e : batch_) {
    spp::sim::Time done = 0;
    switch (e.kind) {
      case Kind::kCached:
        done = shadow_.access(e.cpu, e.va, e.write, e.start);
        break;
      case Kind::kUncached:
        done = shadow_.access_uncached(e.cpu, e.va, e.write, e.start);
        break;
      case Kind::kAtomic:
        done = shadow_.atomic_rmw(e.cpu, e.va, e.start);
        break;
    }
    late += done != e.end ? 1 : 0;
  }
  replay_s_ += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count() -
               (probe_.in_window_s() - in_probes);
  replayed_ += batch_.size();
  mismatches_ += late;
  batch_.clear();
}

void ShadowReplay::finish() {
  flush();
  primary_.fold_shard_counters();
  shadow_.fold_shard_counters();
  mismatches_ += count_counter_differences(primary_.perf(), shadow_.perf());
  mismatches_ += primary_.rings().packets() != shadow_.rings().packets() ? 1 : 0;
  mismatches_ +=
      primary_.rings().rerouted_packets() != shadow_.rings().rerouted_packets()
          ? 1
          : 0;
}

std::uint64_t count_counter_differences(const spp::arch::PerfCounters& a,
                                        const spp::arch::PerfCounters& b) {
  std::uint64_t diff = 0;
  const auto cmp = [&diff](std::uint64_t x, std::uint64_t y) {
    diff += x != y ? 1 : 0;
  };
  if (a.cpu.size() != b.cpu.size()) return 1;
  for (std::size_t i = 0; i < a.cpu.size(); ++i) {
    const spp::arch::CpuCounters& x = a.cpu[i];
    const spp::arch::CpuCounters& y = b.cpu[i];
    cmp(x.loads, y.loads);
    cmp(x.stores, y.stores);
    cmp(x.l1_hits, y.l1_hits);
    cmp(x.upgrades, y.upgrades);
    cmp(x.miss_fu_local, y.miss_fu_local);
    cmp(x.miss_node, y.miss_node);
    cmp(x.miss_gcache, y.miss_gcache);
    cmp(x.miss_remote, y.miss_remote);
    cmp(x.writebacks, y.writebacks);
    cmp(x.uncached_ops, y.uncached_ops);
    cmp(x.atomic_ops, y.atomic_ops);
    cmp(x.invals_received, y.invals_received);
    cmp(x.mem_stall, y.mem_stall);
  }
  cmp(a.ring_packets, b.ring_packets);
  cmp(a.sci_purges, b.sci_purges);
  cmp(a.sci_purge_targets, b.sci_purge_targets);
  cmp(a.invals_sent, b.invals_sent);
  cmp(a.gcache_evictions, b.gcache_evictions);
  cmp(a.l1_evictions, b.l1_evictions);
  return diff;
}

}  // namespace perfbench
