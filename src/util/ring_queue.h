// FIFO ring buffer with reserved capacity.
//
// The engine's ready queue holds at most one entry per terminal in the
// closed model, so a ring reserved to the terminal count never reallocates,
// where a std::deque would allocate and free a block every few hundred
// push/pop pairs. An open system's queue is unbounded: the ring then doubles
// when full (amortized, like a vector).
#ifndef CCSIM_UTIL_RING_QUEUE_H_
#define CCSIM_UTIL_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.h"

namespace ccsim {

template <typename T>
class RingQueue {
 public:
  /// Grows the ring so it holds `n` items without reallocating.
  void Reserve(size_t n) {
    if (n > buf_.size()) Regrow(n);
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// The i-th item from the front. Requires i < size().
  const T& operator[](size_t i) const {
    CCSIM_CHECK_LT(i, size_);
    return buf_[(head_ + i) & mask_];
  }

  void PushBack(T value) {
    if (size_ == buf_.size()) Regrow(size_ + 1);
    buf_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  /// Removes and returns the i-th item from the front, keeping the order of
  /// the rest. Shifts the i items ahead of it, so removing near the front
  /// (the only use past i = 0) is cheap. Requires i < size().
  T EraseAt(size_t i) {
    CCSIM_CHECK_LT(i, size_);
    T value = std::move(buf_[(head_ + i) & mask_]);
    for (size_t k = i; k > 0; --k) {
      buf_[(head_ + k) & mask_] = std::move(buf_[(head_ + k - 1) & mask_]);
    }
    head_ = (head_ + 1) & mask_;
    --size_;
    return value;
  }

 private:
  /// Reallocates to the next power of two >= max(n, 2 * capacity, 8),
  /// unwrapping the items to the front.
  void Regrow(size_t n) {
    size_t capacity = buf_.empty() ? 8 : buf_.size() * 2;
    while (capacity < n) capacity *= 2;
    std::vector<T> grown(capacity);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(grown);
    head_ = 0;
    mask_ = capacity - 1;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace ccsim

#endif  // CCSIM_UTIL_RING_QUEUE_H_
