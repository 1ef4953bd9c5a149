// Virtual memory classes and address translation.
//
// The SPP-1000 compilers expose five classes of virtual memory (section 3.2);
// a per-region placement rule is what distinguishes them:
//
//   ThreadPrivate  one physical instance per CPU, resident in that CPU's FU
//   NodePrivate    one instance per hypernode, page-interleaved over its FUs
//   NearShared     single instance, page-interleaved over one home node's FUs
//   FarShared      single instance, pages round-robin over all nodes and FUs
//   BlockShared    like FarShared with a user block size instead of the page
//
// (The paper notes node-private and block-shared were not yet operational on
// the measured system; we implement them anyway — they are part of the
// documented architecture and the ablation benches exercise them.)
//
// allocate() applies the rule once per page and records the result in a
// page table, one 8-byte entry per virtual page, so translate() never
// searches.  A page that maps linearly and identically for every CPU
// (FarShared, NearShared, and BlockShared pages inside one block) stores
// its PA - VA offset: translation is one indexed load, an add and a mask.
// Every other page stores its region's index and translates through the
// placement rule (translate_in) without a search.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spp/arch/address.h"
#include "spp/arch/topology.h"

namespace spp::arch {

enum class MemClass : std::uint8_t {
  kThreadPrivate,
  kNodePrivate,
  kNearShared,
  kFarShared,
  kBlockShared,
};

const char* to_string(MemClass mc);

/// One virtual allocation and its placement rule.
struct Region {
  VAddr base = 0;
  std::uint64_t size = 0;
  MemClass mem_class = MemClass::kFarShared;
  unsigned home_node = 0;        ///< NearShared only.
  std::uint64_t block_bytes = kPageBytes;  ///< BlockShared only.
  /// Physical byte offset of this region's slice within every participating
  /// FU window (the same offset is reserved in each FU).
  std::uint64_t fu_base = 0;
  /// Bytes reserved per participating FU / per instance.
  std::uint64_t per_fu_bytes = 0;
  std::string label;  ///< for diagnostics and memory maps.
};

/// Allocation map + translation for one machine.
///
/// Allocation is a bump allocator in virtual space; each region reserves an
/// identical slice at the same offset in every functional unit window it can
/// touch.  Translation and region lookup are O(1) through the page table.
/// Only allocate() writes the table: under the PDES engine, phase workers
/// translate concurrently, and rt::Runtime::alloc serializes allocations at
/// the fusion rendezvous.
class VMem {
 public:
  explicit VMem(const Topology& topo) : topo_(topo), pages_(1, kUnmapped) {}

  /// Reserves `bytes` of virtual space with the given class.  `home_node`
  /// applies to NearShared; `block_bytes` to BlockShared.
  VAddr allocate(std::uint64_t bytes, MemClass mem_class,
                 const std::string& label, unsigned home_node = 0,
                 std::uint64_t block_bytes = kPageBytes);

  /// Translates a virtual address as seen from `cpu`.  ThreadPrivate and
  /// NodePrivate resolve to the accessor's own instance.  Throws
  /// std::out_of_range for an unmapped address.
  PAddr translate(VAddr va, unsigned cpu) const {
    const std::uint64_t e = entry(va);
    if ((e & kRegionEntry) == 0) return (va + e) & kPaMask;
    return translate_in(regions_[e >> kIndexShift], va, cpu);
  }

  /// True when, as seen from any one CPU, the whole page holding `va` maps
  /// linearly (PA - VA constant across its bytes), so callers streaming
  /// lines may translate once per page.  False only for a BlockShared page
  /// that spans more than one block.
  bool page_linear(VAddr va) const { return (entry(va) & kSplitPage) == 0; }

  /// The region holding `va`; throws std::out_of_range if unmapped.
  const Region& region_of(VAddr va) const {
    return regions_[entry(va) >> kIndexShift];
  }

  /// True if two CPUs resolve `va` to the same physical address (i.e. the
  /// data is genuinely shared between them).
  bool shared_between(VAddr va, unsigned cpu_a, unsigned cpu_b) const;

  const std::vector<Region>& regions() const { return regions_; }
  std::uint64_t reserved_bytes_per_fu() const { return fu_bump_; }

 private:
  // Page-table entry layout.  Bits [kIndexShift, 64) hold the region index.
  // Bit 0 clear: bits [0, kIndexShift) hold PA - VA modulo 2^kIndexShift
  // for the page (a page multiple, so bit 0 of it is clear too); every PA
  // fits below 2^kIndexShift, so (va + entry) & kPaMask is the PA.  Bit 0
  // set: translate through the region's placement rule, and bit 1 marks a
  // page that spans more than one block.
  static constexpr unsigned kIndexShift =
      kFuWindowBits + 6;  ///< 64 FU windows = 16 nodes x 4 FUs.
  static_assert(kMaxNodes * kFusPerNode <= (1u << (kIndexShift - kFuWindowBits)));
  static constexpr std::uint64_t kPaMask = (1ull << kIndexShift) - 1;
  static constexpr std::uint64_t kRegionEntry = 1;
  static constexpr std::uint64_t kSplitPage = 2;
  /// Page 0 and any page past the bump end: a region entry whose index no
  /// region can have.
  static constexpr std::uint64_t kUnmapped = ~std::uint64_t{0};
  static constexpr std::uint64_t kMaxRegions = kUnmapped >> kIndexShift;

  /// The page-table entry of a mapped address; throws std::out_of_range
  /// otherwise.
  std::uint64_t entry(VAddr va) const {
    const std::uint64_t page = page_of(va);
    const std::uint64_t e = page < pages_.size() ? pages_[page] : kUnmapped;
    if (e == kUnmapped) unmapped();
    return e;
  }
  [[noreturn]] static void unmapped();

  /// translate() within an already-found region.
  PAddr translate_in(const Region& r, VAddr va, unsigned cpu) const;

  Topology topo_;
  std::vector<Region> regions_;  ///< sorted by base.
  /// One entry per virtual page, indexed by page_of(va); page 0 is never
  /// handed out, and the end of the table is the virtual bump pointer.
  std::vector<std::uint64_t> pages_;
  std::uint64_t fu_bump_ = 0;    ///< physical bump offset, same in every FU.
};

}  // namespace spp::arch
