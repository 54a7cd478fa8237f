// Intrusive FIFO lists threaded through one shared node pool.
//
// Many short per-granule lists (lock holders, lock wait queues, granule
// waiters) share one free-listed node vector instead of each owning a
// container, so a list costs two ints and the steady state allocates nothing
// once the pool has reached its working size. (A container per granule would
// keep growing to each granule's own high-water mark long into a run.)
#ifndef CCSIM_UTIL_LIST_POOL_H_
#define CCSIM_UTIL_LIST_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccsim {

/// Intrusive singly linked lists of T threaded through one pooled,
/// free-listed node vector shared by every object's list. Node indices
/// stay valid as the pool grows; -1 ends a list.
template <typename T>
class ListPool {
 public:
  struct List {
    int32_t head = -1;
    int32_t tail = -1;
    bool empty() const { return head < 0; }
  };

  void Reserve(size_t n) { nodes_.reserve(n); }

  /// The front element; requires a non-empty list.
  const T& Front(const List& list) const { return At(list.head).value; }

  /// The first element, front to back, for which pred(element) is true;
  /// nullptr if there is none.
  template <typename Pred>
  const T* FindIf(const List& list, Pred&& pred) const {
    for (int32_t cur = list.head; cur >= 0; cur = At(cur).next) {
      if (pred(At(cur).value)) return &At(cur).value;
    }
    return nullptr;
  }

  /// Calls fn(element) for each element, front to back.
  template <typename Fn>
  void ForEach(const List& list, Fn&& fn) const {
    for (int32_t cur = list.head; cur >= 0; cur = At(cur).next) {
      fn(At(cur).value);
    }
  }

  void PushBack(List& list, const T& value) {
    LinkAfter(list, list.tail, Alloc(value));
  }

  /// Inserts `value` after the longest prefix of elements for which
  /// in_prefix(element) is true.
  template <typename Pred>
  void InsertAfterPrefix(List& list, Pred&& in_prefix, const T& value) {
    const int32_t node = Alloc(value);
    int32_t prev = -1;
    for (int32_t cur = list.head; cur >= 0 && in_prefix(At(cur).value);
         cur = At(cur).next) {
      prev = cur;
    }
    LinkAfter(list, prev, node);
  }

  /// Removes the front element; requires a non-empty list.
  void PopFront(List& list) { Unlink(list, -1, list.head); }

  /// Removes the first element for which pred(element) is true. Returns
  /// false if there is none.
  template <typename Pred>
  bool RemoveFirst(List& list, Pred&& pred) {
    for (int32_t prev = -1, cur = list.head; cur >= 0;
         prev = cur, cur = At(cur).next) {
      if (pred(At(cur).value)) {
        Unlink(list, prev, cur);
        return true;
      }
    }
    return false;
  }

 private:
  struct Node {
    T value;
    int32_t next = -1;
  };

  Node& At(int32_t node) { return nodes_[static_cast<size_t>(node)]; }
  const Node& At(int32_t node) const {
    return nodes_[static_cast<size_t>(node)];
  }

  /// Pops a node off the free list (or grows the pool) holding `value`.
  int32_t Alloc(const T& value) {
    int32_t node = free_;
    if (node >= 0) {
      free_ = At(node).next;
    } else {
      node = static_cast<int32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    At(node).value = value;
    return node;
  }
  /// Links `node` after `prev` (-1: at the front).
  void LinkAfter(List& list, int32_t prev, int32_t node) {
    int32_t& link = prev >= 0 ? At(prev).next : list.head;
    At(node).next = link;
    link = node;
    if (list.tail == prev) list.tail = node;
  }
  /// Unlinks `node`, whose predecessor is `prev` (-1: none), and frees it.
  void Unlink(List& list, int32_t prev, int32_t node) {
    (prev >= 0 ? At(prev).next : list.head) = At(node).next;
    if (list.tail == node) list.tail = prev;
    At(node).next = free_;
    free_ = node;
  }

  std::vector<Node> nodes_;
  int32_t free_ = -1;  ///< Head of the free list.
};

}  // namespace ccsim

#endif  // CCSIM_UTIL_LIST_POOL_H_
