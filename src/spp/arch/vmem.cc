#include "spp/arch/vmem.h"

#include <cassert>
#include <stdexcept>

namespace spp::arch {

const char* to_string(MemClass mc) {
  switch (mc) {
    case MemClass::kThreadPrivate:
      return "thread_private";
    case MemClass::kNodePrivate:
      return "node_private";
    case MemClass::kNearShared:
      return "near_shared";
    case MemClass::kFarShared:
      return "far_shared";
    case MemClass::kBlockShared:
      return "block_shared";
  }
  return "?";
}

namespace {
std::uint64_t round_up(std::uint64_t x, std::uint64_t align) {
  return (x + align - 1) / align * align;
}
}  // namespace

VAddr VMem::allocate(std::uint64_t bytes, MemClass mem_class,
                     const std::string& label, unsigned home_node,
                     std::uint64_t block_bytes) {
  assert(bytes > 0);
  assert(home_node < topo_.nodes);
  assert(block_bytes >= kLineBytes && block_bytes % kLineBytes == 0);

  Region r;
  r.base = pages_.size() << kPageBits;
  r.size = round_up(bytes, kPageBytes);
  r.mem_class = mem_class;
  r.home_node = home_node;
  r.block_bytes = block_bytes;
  r.fu_base = fu_bump_;
  r.label = label;

  // Every region occupies a machine-wide unique offset range; each page or
  // block lives at ITS OWN offset inside whichever FU window hosts it.  This
  // wastes window space (windows are 64 GB, the real FU had 32 MB -- holes
  // are free in simulation) but makes the within-window offset a faithful
  // direct-mapped cache index (see compact_line in address.h).
  switch (mem_class) {
    case MemClass::kThreadPrivate:
      // One instance per CPU; both CPUs of a FU keep instances in that FU,
      // at consecutive unique offset ranges.
      r.per_fu_bytes = r.size * kCpusPerFu;
      break;
    default:
      // Shared classes and NodePrivate (whose per-node instances reuse the
      // same offsets in different nodes, never sharing a CPU).
      r.per_fu_bytes = r.size;
      break;
  }

  const std::uint64_t fu_bump = round_up(fu_bump_ + r.per_fu_bytes, kPageBytes);
  if (fu_bump >= (1ull << kFuWindowBits)) {
    throw std::runtime_error("VMem: physical FU window exhausted");
  }
  if (regions_.size() >= kMaxRegions) {
    throw std::length_error("VMem: region table full");
  }
  fu_bump_ = fu_bump;

  // One page-table entry per page, sized in one step.
  const std::uint64_t index = regions_.size() << kIndexShift;
  const std::size_t first = pages_.size();
  pages_.resize(first + r.size / kPageBytes);
  for (std::size_t p = first; p < pages_.size(); ++p) {
    const VAddr va = p << kPageBits;
    const std::uint64_t off = va - r.base;
    std::uint64_t e = index | kRegionEntry;
    switch (mem_class) {
      case MemClass::kThreadPrivate:
      case MemClass::kNodePrivate:
        // Per-CPU / per-node instances: the PA depends on the accessor.
        break;
      case MemClass::kBlockShared:
        if (off / block_bytes != (off + kPageBytes - 1) / block_bytes) {
          e |= kSplitPage;
          break;
        }
        [[fallthrough]];
      case MemClass::kNearShared:
      case MemClass::kFarShared:
        e = index | ((translate_in(r, va, 0) - va) & kPaMask);
        assert((e & (kPageBytes - 1)) == 0);
        break;
    }
    pages_[p] = e;
  }
  regions_.push_back(std::move(r));
  return regions_.back().base;
}

void VMem::unmapped() { throw std::out_of_range("VMem: unmapped address"); }

PAddr VMem::translate_in(const Region& r, VAddr va, unsigned cpu) const {
  const std::uint64_t off = va - r.base;
  const unsigned my_node = topo_.node_of_cpu(cpu);

  switch (r.mem_class) {
    case MemClass::kThreadPrivate: {
      // Instance per CPU, in the CPU's own FU; the two CPUs of a FU get
      // consecutive slots.
      const unsigned fu = topo_.fu_of_cpu(cpu);
      const unsigned slot = cpu % kCpusPerFu;
      return make_paddr(fu, r.fu_base + slot * r.size + off);
    }
    case MemClass::kNodePrivate: {
      // Instance per node, page-interleaved across the node's FUs.
      const std::uint64_t page = off / kPageBytes;
      const unsigned fu = topo_.fu_id(
          my_node, static_cast<unsigned>(page % kFusPerNode));
      return make_paddr(fu, r.fu_base + off);
    }
    case MemClass::kNearShared: {
      const std::uint64_t page = off / kPageBytes;
      const unsigned fu = topo_.fu_id(
          r.home_node, static_cast<unsigned>(page % kFusPerNode));
      return make_paddr(fu, r.fu_base + off);
    }
    case MemClass::kFarShared: {
      // Pages round-robin across nodes first, then FU position, matching
      // "the memory is interleaved across hypernodes as well as functional
      // units within each participating hypernode" (section 2.6).
      const std::uint64_t page = off / kPageBytes;
      const unsigned node = static_cast<unsigned>(page % topo_.nodes);
      const unsigned fu_in =
          static_cast<unsigned>((page / topo_.nodes) % kFusPerNode);
      return make_paddr(topo_.fu_id(node, fu_in), r.fu_base + off);
    }
    case MemClass::kBlockShared: {
      const std::uint64_t block = off / r.block_bytes;
      const unsigned node = static_cast<unsigned>(block % topo_.nodes);
      const unsigned fu_in =
          static_cast<unsigned>((block / topo_.nodes) % kFusPerNode);
      return make_paddr(topo_.fu_id(node, fu_in), r.fu_base + off);
    }
  }
  throw std::logic_error("VMem: bad memory class");
}

bool VMem::shared_between(VAddr va, unsigned cpu_a, unsigned cpu_b) const {
  return translate(va, cpu_a) == translate(va, cpu_b);
}

}  // namespace spp::arch
