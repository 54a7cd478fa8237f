// Waits-for graph snapshot used by the audit layer.
//
// Algorithms hand the auditor a snapshot of "who waits for whom"; a cycle
// among transactions that no deadlock resolution has already doomed means a
// permanently blocked set — the simulation would still tick (terminal events
// keep firing) while part of its population is silently wedged, quietly
// skewing every reported metric.
//
// Storage is flat and reusable: edges go into one vector, and FindCycle
// sorts them once into per-waiter adjacency ranges (each range already in
// ascending blocker order) with every blocker resolved to a node index. A
// snapshot owned by a checker and Clear()ed between uses allocates nothing
// once its buffers reach working size.
#ifndef CCSIM_AUDIT_WAITS_FOR_H_
#define CCSIM_AUDIT_WAITS_FOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cc/types.h"

namespace ccsim {

/// Adjacency snapshot: the edges (t, b) say transaction t waits for b.
class WaitsForSnapshot {
 public:
  void AddEdge(TxnId waiter, TxnId blocker) {
    edges_.emplace_back(waiter, blocker);
  }

  /// Drops every edge, keeping the buffers' capacity.
  void Clear() { edges_.clear(); }

  bool empty() const { return edges_.empty(); }

  /// Returns one cycle as an ordered list of transactions (each waiting for
  /// the next, the last waiting for the first), or an empty vector if the
  /// graph is acyclic. Deterministic: traversal visits waiters in ascending
  /// TxnId order, and each waiter's blockers in ascending order, so the same
  /// edge set always yields the same cycle whatever order it was added in.
  std::vector<TxnId> FindCycle();

 private:
  std::vector<std::pair<TxnId, TxnId>> edges_;  ///< (waiter, blocker).
  // FindCycle scratch, indexed by node (a distinct waiter, ascending id).
  std::vector<TxnId> nodes_;
  std::vector<int32_t> first_edge_;  ///< Node n's edges: [first_edge_[n],
                                     ///< first_edge_[n + 1]).
  std::vector<int32_t> targets_;     ///< Per edge: blocker's node, or -1.
  std::vector<uint8_t> color_;
  std::vector<int32_t> parent_;
  std::vector<std::pair<int32_t, int32_t>> stack_;  ///< (node, next edge).
};

}  // namespace ccsim

#endif  // CCSIM_AUDIT_WAITS_FOR_H_
