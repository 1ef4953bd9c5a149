// Global cache buffers (the "CTcache"): per-(hypernode, ring) direct-mapped
// caches of remote lines, carved out of functional-unit memory (section 2.5:
// "A cache buffer is partitioned out of the functional unit memory to support
// cache line copies from the other hypernode memories on the same global
// ring").
//
// A gcache entry acts as the home-proxy for its line within the node: it
// remembers which local CPUs hold L1 copies, so that an SCI purge arriving
// from the line's real home can invalidate exactly the right caches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "spp/arch/address.h"

namespace spp::sci {

/// One global-cache buffer (one node x one ring).
class GCache {
 public:
  static constexpr arch::LineAddr kNoLine = arch::kNoLineField;

  /// 8 bytes: the line in an arch::kLineFieldBits bit-field, then the
  /// dirty bit and the sharer mask.
  struct Entry {
    arch::LineAddr line : arch::kLineFieldBits = kNoLine;
    bool dirty : 1 = false;        ///< node holds the only, modified copy.
    std::uint8_t cpu_sharers = 0;  ///< bitmask over the node's 8 CPUs.
  };

  explicit GCache(std::uint64_t bytes, unsigned num_fus = 1)
      : sets_(bytes / arch::kLineBytes), num_fus_(num_fus) {}

  std::uint64_t sets() const { return sets_; }

  std::uint64_t set_of(arch::LineAddr line) const {
    return arch::compact_line(line, num_fus_) % sets_;
  }

  Entry& slot(arch::LineAddr line) {
    const std::uint64_t set = set_of(line);
    if (set >= entries_.size()) grow(set);
    return entries_[set];
  }
  const Entry& slot(arch::LineAddr line) const {
    const std::uint64_t set = set_of(line);
    return set < entries_.size() ? entries_[set] : kEmpty;
  }

  bool present(arch::LineAddr line) const {
    const Entry& e = slot(line);
    return e.line == line;
  }

  void drop(arch::LineAddr line) {
    const std::uint64_t set = set_of(line);
    if (set >= entries_.size()) return;
    Entry& e = entries_[set];
    if (e.line == line) e = Entry{};
  }

  void clear() {
    for (auto& e : entries_) e = Entry{};
  }

 private:
  /// The entry array is sized on demand: `sets_` is the architected set
  /// count (it fixes `set_of`'s modulus and therefore every conflict), but
  /// the backing storage only ever covers the highest set actually touched.
  /// Small runs touch a handful of sets, and eagerly materialising the full
  /// 8 MB-per-gcache array dominated `Machine` construction wall time.
  void grow(std::uint64_t set) {
    std::uint64_t cap = entries_.empty() ? 64 : entries_.size();
    while (cap <= set) cap *= 2;
    entries_.resize(std::min(cap, sets_));
  }

  static const Entry kEmpty;

  std::uint64_t sets_;
  unsigned num_fus_;
  std::vector<Entry> entries_;
};

inline const GCache::Entry GCache::kEmpty{};

static_assert(sizeof(GCache::Entry) == 8, "gcache entries must stay packed");

}  // namespace spp::sci
