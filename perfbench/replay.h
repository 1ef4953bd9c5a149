// Shadow-machine replay: times the arch+sci layer from outside the program.
//
// A ShadowReplay attached to a running Machine as its MemObserver records
// every completed transaction and, in batches, re-issues it through the
// public access / access_uncached / atomic_rmw calls of a second Machine with
// the same topology and cost model.  The replay is timed on the host; it
// exercises exactly the memory pipeline the run exercised (translation, L1,
// home directory, gcache, SCI ring) with none of the conductor, runtime or
// application work around it.
//
// The shadow is never run and has no conductor, so it cannot allocate; before
// each batch it copies the primary's allocation map, which only ever grows
// (regions are appended, never moved), so every address in the batch
// translates exactly as it did in the primary.  This also covers regions the
// primary allocated during its run (the PVM message pool).
//
// Checking: each replayed transaction must complete at the time the primary
// reported, and after the run every memory and SCI counter of the shadow
// must equal the primary's, as must the SCI ring fabric's packet counts.
// Any difference is counted as a mismatch.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "calibrate.h"
#include "spp/arch/machine.h"

namespace perfbench {

class ShadowReplay final : public spp::arch::MemObserver {
 public:
  static constexpr std::uint64_t kNoDrop =
      std::numeric_limits<std::uint64_t>::max();

  /// Shadows `primary`.  Host time spent in `probe`'s periodic probes is
  /// left out of the replay timings.  `drop_event` names one transaction (by
  /// arrival index) to leave out of the replay; the self-check uses it to
  /// show that a lost event is reported as a mismatch.
  ShadowReplay(spp::arch::Machine& primary, const SpeedProbe& probe,
               std::uint64_t drop_event = kNoDrop);

  ShadowReplay(const ShadowReplay&) = delete;
  ShadowReplay& operator=(const ShadowReplay&) = delete;

  void on_access(const spp::arch::MemEvent& ev) override;

  /// Replays what is still buffered, then compares the two machines'
  /// counters (after folding the primary's per-shard slots).  Call once,
  /// after the primary's run has returned.
  void finish();

  /// Host seconds spent inside the shadow's access calls, less probes.
  double replay_seconds() const { return replay_s_; }
  /// Transactions replayed.
  std::uint64_t events() const { return replayed_; }
  /// Transactions whose completion time differed, plus counters that
  /// differed at the end.  Valid after finish().
  std::uint64_t mismatches() const { return mismatches_; }

 private:
  enum class Kind : std::uint8_t { kCached, kUncached, kAtomic };
  struct Event {
    spp::arch::VAddr va;
    spp::sim::Time start;
    spp::sim::Time end;
    std::uint32_t cpu;
    Kind kind;
    bool write;
  };

  void flush();

  spp::arch::Machine& primary_;
  const SpeedProbe& probe_;
  spp::arch::Machine shadow_;
  std::vector<Event> batch_;
  std::uint64_t seen_ = 0;
  std::uint64_t drop_event_;
  std::uint64_t replayed_ = 0;
  std::uint64_t mismatches_ = 0;
  double replay_s_ = 0;
};

/// Number of memory and SCI counters that differ between `a` and `b`:
/// every per-CPU memory counter and every machine-wide coherence counter.
/// Compute charges (compute, flops) are the runtime's, not the memory
/// pipeline's, and are not compared.
std::uint64_t count_counter_differences(const spp::arch::PerfCounters& a,
                                        const spp::arch::PerfCounters& b);

}  // namespace perfbench
