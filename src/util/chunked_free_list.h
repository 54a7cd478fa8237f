// Free-listed slot store in fixed-size chunks that never move.
//
// A slot's address stays valid while the store grows, so its owner can run
// code stored in a slot in place (a kernel event, a service completion) even
// when that code acquires new slots. Chunks are allocated on growth and kept
// until the store dies, so once the store has reached its high-water mark,
// acquiring and releasing slots never touches the heap. Used by the event
// arena (sim/simulator.h) and the service slot store (res/server_pool.h).
#ifndef CCSIM_UTIL_CHUNKED_FREE_LIST_H_
#define CCSIM_UTIL_CHUNKED_FREE_LIST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.h"

namespace ccsim {

/// Slots of T indexed by uint32_t. T must be default-constructible and have
/// a `uint32_t next` member: the store threads its free list through `next`
/// while a slot is free; while a slot is acquired, `next` is its owner's (a
/// queue link, a liveness tag). Acquire() does not reset a reused slot's
/// other members.
template <typename T>
class ChunkedFreeList {
 public:
  /// End of a list of slot indices; never a valid index.
  static constexpr uint32_t kNull = 0xffffffffu;
  /// Slot indices stay below this, so owners may use it as a second tag.
  static constexpr uint32_t kMaxSlots = 0xfffffffeu;

  T& operator[](uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  const T& operator[](uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  /// Slots handed out so far (in use or free): every valid index is below
  /// this.
  uint32_t size() const { return size_; }

  /// Pops a free slot, or grows the store by one slot (a new chunk when the
  /// last is full).
  uint32_t Acquire() {
    if (free_head_ != kNull) {
      const uint32_t slot = free_head_;
      free_head_ = (*this)[slot].next;
      return slot;
    }
    CCSIM_CHECK_LT(size_, kMaxSlots) << "slot store exhausted";
    if ((size_ & kChunkMask) == 0) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    }
    return size_++;
  }

  /// Returns `slot` to the free list; it is reused before the store grows.
  void Release(uint32_t slot) {
    (*this)[slot].next = free_head_;
    free_head_ = slot;
  }

 private:
  static constexpr uint32_t kChunkShift = 6;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  std::vector<std::unique_ptr<T[]>> chunks_;
  uint32_t size_ = 0;
  uint32_t free_head_ = kNull;
};

}  // namespace ccsim

#endif  // CCSIM_UTIL_CHUNKED_FREE_LIST_H_
