// Address types and geometry for the SPP-1000 memory system.
//
// Physical addresses encode their home functional unit in the high bits:
// each FU owns a 64 GB physical window, far more than the real machine's
// 32 MB per FU, so the simulator never runs out while keeping home lookup a
// shift.  Cache lines are 32 bytes (PA-7100) and pages 4 KB.
#pragma once

#include <cstdint>

namespace spp::arch {

using VAddr = std::uint64_t;  ///< virtual address (application view)
using PAddr = std::uint64_t;  ///< physical address (machine view)
using LineAddr = std::uint64_t;  ///< physical address >> line bits

inline constexpr unsigned kLineBits = 5;
inline constexpr std::uint64_t kLineBytes = 1ull << kLineBits;  // 32 B
inline constexpr unsigned kPageBits = 12;
inline constexpr std::uint64_t kPageBytes = 1ull << kPageBits;  // 4 KB

/// Bits of physical offset per functional unit window (64 GB).
inline constexpr unsigned kFuWindowBits = 36;

constexpr LineAddr line_of(PAddr pa) { return pa >> kLineBits; }
constexpr PAddr line_base(LineAddr line) { return line << kLineBits; }
constexpr std::uint64_t page_of(VAddr va) { return va >> kPageBits; }

/// Global functional-unit index encoded in a physical address.
constexpr unsigned home_fu_of(PAddr pa) {
  return static_cast<unsigned>(pa >> kFuWindowBits);
}

/// Offset of a physical address within its FU window.
constexpr std::uint64_t fu_offset_of(PAddr pa) {
  return pa & ((1ull << kFuWindowBits) - 1);
}

/// Builds a physical address from a FU index and an offset in its window.
constexpr PAddr make_paddr(unsigned fu, std::uint64_t offset) {
  return (static_cast<PAddr>(fu) << kFuWindowBits) | offset;
}

/// Width of the line field packed into L1 and global-cache entries.  A
/// 16-hypernode machine has 64 FU windows of 2^36 bytes, so its lines stay
/// below 2^37; the field's all-ones value is free for the empty-slot
/// sentinel.
inline constexpr unsigned kLineFieldBits = 48;
/// The sentinel doubles as the mask stores into the field apply: a no-op on
/// every line a machine can name, and it shows -Wconversion the narrowing
/// is safe.
inline constexpr LineAddr kNoLineField = (LineAddr{1} << kLineFieldBits) - 1;

/// Cache-index line number.  VMem places every allocation at a machine-wide
/// unique offset (the same offset inside whichever FU window hosts each
/// page/block), so the within-window offset alone is a conflict-faithful
/// direct-mapped index: data that would be contiguous physical memory on the
/// real machine indexes contiguous sets here.  Offsets can only coincide
/// across FUs for per-thread/per-node private instances, which are never
/// touched by the same CPU.
constexpr std::uint64_t compact_line(LineAddr line, unsigned /*num_fus*/) {
  return line & ((1ull << (kFuWindowBits - kLineBits)) - 1);
}

}  // namespace spp::arch
