// Waits-for graph construction and deadlock resolution.
//
// The paper's blocking algorithm runs deadlock detection each time a
// transaction blocks and restarts the *youngest* transaction in the cycle.
// Because new waits-for edges are only created when a transaction blocks (or
// enqueues an upgrade, whose new edges all touch the upgrader), any new cycle
// must pass through the newly blocked transaction — so detection searches
// only cycles through the requester, and the graph is acyclic between
// detections.
//
// Such a cycle also has to come back into the requester, along an edge from
// some non-excluded waiter that the requester blocks (it holds a lock the
// waiter conflicts with, or is queued ahead of it). When no such in-edge
// exists (LockManager::BlocksAnyWaiter is false), no cycle can close, and
// FindCycle answers "none" without walking the forward graph. Most blocks
// find no cycle, and many of those have no in-edge, so this check ends most
// searches; when it passes, the DFS runs unchanged, so the cycle found and
// the victim are the same as without it.
#ifndef CCSIM_CC_DEADLOCK_H_
#define CCSIM_CC_DEADLOCK_H_

#include <functional>
#include <vector>

#include "cc/lock_manager.h"
#include "cc/types.h"
#include "util/dense_table.h"

namespace ccsim {

/// How to choose the transaction to restart from a deadlock cycle.
enum class VictimPolicy {
  kYoungest,    ///< Most recent incarnation start (the paper's choice).
  kOldest,      ///< Earliest incarnation start.
  kFewestLocks, ///< Holder of the fewest locks (cheapest to redo, roughly).
};

/// Per-transaction facts the detector needs, supplied by the algorithm.
struct VictimContext {
  /// Incarnation start time of a transaction.
  std::function<SimTime(TxnId)> start_time;
  /// Number of locks currently held (for kFewestLocks).
  std::function<size_t(TxnId)> locks_held;
};

/// Result of resolving deadlocks after `requester` blocked.
struct DeadlockResolution {
  /// True if the requester itself was chosen as a victim (the caller should
  /// cancel its request and restart it).
  bool requester_is_victim = false;
  /// Other transactions chosen as victims; the caller must abort them.
  std::vector<TxnId> victims;
  /// Number of cycles encountered.
  int cycles_found = 0;
  /// Length of each cycle found, in order (observability).
  std::vector<int> cycle_lengths;
};

/// Detector over a LockManager's waits-for relation. Logically stateless:
/// the mutable members are pooled scratch (DFS frames, visited/excluded
/// sets) reused across searches so the no-cycle fast path — the common case,
/// run on every block — allocates nothing.
class DeadlockDetector {
 public:
  DeadlockDetector(const LockManager* locks, VictimPolicy policy)
      : locks_(locks), policy_(policy) {}

  /// Capacity hint (transaction population), which bounds every search
  /// path, blocker list and cycle: pre-sizes the scratch so searches do not
  /// allocate. No behavioral effect.
  void Reserve(size_t num_txns);

  /// Repeatedly finds a cycle through `requester` and selects a victim until
  /// no such cycle remains. Transactions in `doomed` (victims already chosen
  /// but not yet aborted by the engine) are treated as absent, since their
  /// locks are about to be released. If the requester is ever selected, the
  /// search stops: restarting the requester removes all cycles through it.
  DeadlockResolution Resolve(TxnId requester, const SmallIdSet& doomed,
                             const VictimContext& context) const;

  /// The same resolution, written into `*out` (whose vectors keep their
  /// capacity): with a caller-owned `out`, a search that finds cycles
  /// allocates nothing once the buffers are warm.
  void Resolve(TxnId requester, const SmallIdSet& doomed,
               const VictimContext& context, DeadlockResolution* out) const;

  /// Finds one cycle through `start` (ignoring `excluded` transactions);
  /// returns the cycle's members, or empty if none. Exposed for tests.
  std::vector<TxnId> FindCycle(TxnId start, const SmallIdSet& excluded) const;

 private:
  /// FindCycle, written into `*cycle` (empty if none).
  void FindCycle(TxnId start, const SmallIdSet& excluded,
                 std::vector<TxnId>* cycle) const;

  /// DFS path frame: its blockers are blocker_stack_[next, end).
  struct Frame {
    TxnId txn = kInvalidTxn;
    size_t next = 0;
    size_t end = 0;
  };

  TxnId PickVictim(const std::vector<TxnId>& cycle,
                   const VictimContext& context) const;

  const LockManager* locks_;
  VictimPolicy policy_;
  mutable std::vector<Frame> frames_;  ///< DFS path, reused across searches.
  /// Every path frame's blocker list, stacked in path order: a frame's
  /// list sits above its parent's and is dropped when the frame pops.
  mutable std::vector<TxnId> blocker_stack_;
  mutable std::vector<TxnId> blockers_scratch_;
  mutable SmallIdSet visited_;
  mutable SmallIdSet excluded_scratch_;  ///< doomed ∪ victims-so-far.
  mutable std::vector<TxnId> cycle_scratch_;
};

}  // namespace ccsim

#endif  // CCSIM_CC_DEADLOCK_H_
