// The conductor's per-shard ready queue: a flat binary min-heap of runnable
// threads keyed on (clock, tid).
//
// Every scheduling dispatch pops the minimum and, unless the thread blocked
// or finished, pushes it back; yield() peeks at the minimum.  A red-black
// tree (std::set) paid a node allocation and a rebalance per push.  The heap
// is one contiguous array, and each entry carries a copy of its key, so
// sifting compares without dereferencing the thread.
//
// Keys are unique -- a thread id is, and a thread is queued at most once --
// so the pop order is the total (clock, tid) order, exactly what
// std::set<..., (clock, tid)>::begin() yields.  A queued thread's clock never
// changes while it waits (only a running thread advances its own clock, and
// unblock() sets it before pushing), so the copied key stays exact.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "spp/sim/time.h"

namespace spp::rt {

template <typename T>
class ReadyQueue {
 public:
  struct Entry {
    sim::Time clock;
    unsigned tid;
    T* item;

    bool before(const Entry& o) const {
      return clock != o.clock ? clock < o.clock : tid < o.tid;
    }
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  void clear() { heap_.clear(); }

  /// The minimum entry; the queue must not be empty.
  const Entry& top() const {
    assert(!heap_.empty());
    return heap_.front();
  }

  void push(sim::Time clock, unsigned tid, T* item) {
    heap_.push_back(Entry{clock, tid, item});
    sift_up(heap_.size() - 1);
  }

  /// Removes and returns the minimum entry's item.
  T* pop() {
    assert(!heap_.empty());
    T* item = heap_.front().item;
    remove_at(0);
    return item;
  }

  /// Removes `item` wherever it sits (linear find, then swap-remove and
  /// re-heapify).  Only fault migration calls this, so O(n) is fine.
  /// Returns false when `item` is not queued.
  bool erase(const T* item) {
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      if (heap_[i].item == item) {
        remove_at(i);
        return true;
      }
    }
    return false;
  }

 private:
  void remove_at(std::size_t i) {
    heap_[i] = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    // The moved-in entry may belong above or below slot i.
    if (i > 0 && heap_[i].before(heap_[(i - 1) / 2])) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }

  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!e.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const Entry e = heap_[i];
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
      if (!heap_[child].before(e)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;
};

}  // namespace spp::rt
