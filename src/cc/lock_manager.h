// Two-mode (shared/exclusive) lock manager with upgrades.
//
// Grant policy:
//  * Shared locks are mutually compatible; exclusive conflicts with all.
//  * A new request is granted immediately iff it is compatible with every
//    holder AND the object's wait queue is empty (no queue jumping, which
//    prevents writer starvation).
//  * An *upgrade* (holder of S requesting X) is granted immediately iff the
//    requester is the sole holder. Otherwise it waits *ahead* of ordinary
//    waiters (after any earlier upgraders).
//  * On any release or cancellation, the longest compatible prefix of the
//    wait queue is granted ("prefix grant").
//
// Because grants are strictly prefix-ordered, a waiter is blocked by exactly
// (a) the holders its mode conflicts with, and (b) every waiter ahead of it.
// BlockersOf() reports precisely that set, which makes the waits-for graph
// used for deadlock detection exact rather than conservative.
//
// Storage layout (docs/PERFORMANCE.md "Dense CC state"): the lock table is a
// GranuleTable directly indexed by ObjectId; per-transaction state lives in a
// TxnSlotMap of reusable slots; and both an object's holders and its wait
// queue are intrusive FIFO lists threaded through pooled, free-listed node
// vectors (util/list_pool.h) — no per-object container, no hashing, and no
// allocation in steady state once the pools are warm. (A container per
// object would keep growing to each granule's own high-water mark long into
// a run.)
#ifndef CCSIM_CC_LOCK_MANAGER_H_
#define CCSIM_CC_LOCK_MANAGER_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "audit/waits_for.h"
#include "cc/types.h"
#include "util/dense_table.h"
#include "util/list_pool.h"

namespace ccsim {

class Auditor;

enum class LockMode { kShared, kExclusive };

/// Result of a lock request.
enum class LockRequestOutcome {
  kGranted,  ///< Lock held (or already held in a sufficient mode).
  kWaiting,  ///< Enqueued; granted later via release processing.
  kDenied,   ///< Conflict and enqueue_on_conflict was false.
};

/// Counters for reporting and tests.
struct LockManagerStats {
  int64_t requests = 0;
  int64_t immediate_grants = 0;
  int64_t waits = 0;
  int64_t denials = 0;
  int64_t upgrades_requested = 0;
  int64_t deferred_grants = 0;  ///< Grants that happened via queue processing.
};

/// The lock table. Transactions hold any number of locks but wait for at most
/// one at a time (the model's transactions are single-threaded).
class LockManager {
 public:
  LockManager() = default;

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Capacity hint (workload granule count and transaction population).
  /// Pre-sizes the granule table, transaction slots, node pools, and
  /// scratch buffers so the steady state never allocates; purely a
  /// performance hint with no behavioral effect.
  void Reserve(size_t num_objects, size_t num_txns);

  /// Requests `mode` on `obj` for `txn`. Re-requesting an already-sufficient
  /// lock is granted idempotently; requesting X while holding S is an
  /// upgrade. If the lock cannot be granted now and `enqueue_on_conflict` is
  /// false, the request leaves no trace (immediate-restart semantics).
  /// A transaction may not issue a request while it is already waiting.
  LockRequestOutcome Request(TxnId txn, ObjectId obj, LockMode mode,
                             bool enqueue_on_conflict);

  /// Releases all locks held by `txn` and cancels its pending request, if
  /// any. Returns the transactions whose pending requests became granted.
  /// The returned reference points at an internal scratch buffer that stays
  /// valid until the next ReleaseAll call; copy it to keep it longer.
  const std::vector<TxnId>& ReleaseAll(TxnId txn);

  /// True if `txn` has a pending (queued) request.
  bool IsWaiting(TxnId txn) const;

  /// The object `txn` waits on; nullopt if not waiting.
  std::optional<ObjectId> WaitingOn(TxnId txn) const;

  /// The exact set of transactions that must release/cancel before `txn`'s
  /// pending request can be granted (conflicting holders + all earlier
  /// waiters). Empty if `txn` is not waiting.
  std::vector<TxnId> BlockersOf(TxnId txn) const;

  /// Allocation-free variant: clears `out`, then appends the same sorted,
  /// de-duplicated blocker set BlockersOf returns. Lets callers (the
  /// deadlock detector's DFS frames, the locking conflict rules) reuse their
  /// buffers.
  void AppendBlockersOf(TxnId txn, std::vector<TxnId>* out) const;

  /// True iff some waiter not in `excluded` would list `txn` in its
  /// AppendBlockersOf set: `txn` has a waits-for in-edge. Scans the queues
  /// of the granules `txn` holds (same conflict and upgrade rules) and the
  /// waiters behind `txn` in its own queue; allocates nothing.
  bool BlocksAnyWaiter(TxnId txn, const SmallIdSet& excluded) const;

  /// Clears `out`, then appends the current holders of `obj` in acquisition
  /// order (none if unlocked). Blame attribution for denied requests, which
  /// leave no queue trace; like AppendBlockersOf, reuses the caller's buffer.
  void AppendHoldersOf(ObjectId obj, std::vector<TxnId>* out) const;

  /// True if `txn` holds `obj` in a mode at least as strong as `mode`.
  bool HoldsAtLeast(TxnId txn, ObjectId obj, LockMode mode) const;

  /// Number of locks held by `txn`.
  size_t NumHeld(TxnId txn) const;

  /// Total transactions currently waiting.
  size_t waiting_txns() const { return waiting_count_; }

  /// Total objects with at least one holder or waiter (dense occupancy, not
  /// table capacity: granule slots persist after their last holder leaves).
  size_t locked_objects() const { return occupied_count_; }

  const LockManagerStats& stats() const { return stats_; }

  /// Attaches the runtime invariant auditor (nullptr detaches): every grant
  /// and release is reported for two-phase-locking discipline checking.
  void SetAuditor(Auditor* auditor) { auditor_ = auditor; }

  /// Deep structural self-check (the full scan), reporting violations into
  /// `auditor`: every touched granule and every transaction record against
  /// the per-granule and per-transaction rules (CheckEntry, CheckTxn), the
  /// occupancy and waiting counters, and waits-for acyclicity. `doomed`
  /// lists transactions already selected as deadlock/wound victims whose
  /// aborts are still in flight; cycles made only of doomed members are
  /// in-resolution, not permanent blocks. Leaves the change set alone.
  void AuditCheck(Auditor* auditor, const SmallIdSet& doomed) const;

  /// Incremental self-check: the same per-granule and per-transaction rules,
  /// applied only to the granules and transaction records changed since the
  /// previous call, and the waits-for cycle search only if a waiter was
  /// queued since then, over what the new waiters reach (a new cycle must
  /// pass through a new waiter). Changes are recorded only while an auditor
  /// is attached (SetAuditor). The counters are checked by the full scan
  /// alone.
  void AuditChanges(Auditor* auditor, const SmallIdSet& doomed);

  /// Granules a full AuditCheck visits: the engine spaces full scans this
  /// many transitions apart, so they cost O(1) per transition amortized.
  size_t audit_scan_size() const { return table_.touched_count(); }

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };
  struct Waiter {
    TxnId txn;
    /// Requested mode; upgrades always record kExclusive. Carried in the
    /// queue record itself so grant processing never consults a side table
    /// (the old waiter_modes_ map could desync and throw from `.at()`).
    LockMode mode;
    bool upgrade;  ///< Requester already holds S on this object.
  };
  struct Entry {
    ListPool<Holder>::List holders;  ///< In acquisition order.
    ListPool<Waiter>::List queue;    ///< Waiters, front first.
    bool occupied = false;  ///< Counted in occupied_count_.
    bool dirty = false;     ///< Listed in dirty_objects_.
  };
  /// Per-transaction state: held objects in acquisition order (a txn holds
  /// each object at most once, so a flat vector beats a hash set) plus the
  /// single pending request.
  struct TxnRec {
    std::vector<ObjectId> held;
    ObjectId waiting_on = -1;
    /// Index in dirty_txns_, or -1 if not listed. A record leaves the list
    /// when it is erased, so the list never outgrows the live population.
    int32_t dirty_pos = -1;
    void Recycle() {
      held.clear();
      waiting_on = -1;
      dirty_pos = -1;
    }
  };

  /// True if holder `h` blocks waiter `w` on the same granule: `h` is another
  /// transaction, and `w` upgrades or its mode conflicts with `h`'s.
  static bool HolderBlocks(const Holder& h, const Waiter& w);

  /// True if a (possibly upgrade) exclusive/shared request by `txn` is
  /// compatible with the current holders of `entry`.
  bool CompatibleWithHolders(const Entry& entry, TxnId txn, LockMode mode,
                             bool upgrade) const;

  /// `txn`'s holder record on `entry`, or nullptr.
  const Holder* FindHolder(const Entry& entry, TxnId txn) const;
  Holder* FindHolder(const Entry& entry, TxnId txn) {
    return const_cast<Holder*>(std::as_const(*this).FindHolder(entry, txn));
  }

  /// The granule's entry for mutation, materialized on first touch. The
  /// one place a mutable entry is handed out, so it is where an attached
  /// auditor's change set records the granule.
  Entry& MutableEntry(ObjectId obj);

  /// The txn's record for mutation, created on demand and recorded in the
  /// change set like MutableEntry's granule.
  TxnRec& MutableRec(TxnId txn);

  /// Erases the txn's record, dropping it from the change set.
  void EraseRec(TxnId txn, const TxnRec& rec);

  /// The per-granule rules: occupancy flag, holder uniqueness and
  /// compatibility, holder and waiter ↔ transaction index agreement, upgrade
  /// bookkeeping, and that the front waiter is really blocked.
  void CheckEntry(Auditor* auditor, ObjectId obj, const Entry& entry) const;

  /// The per-transaction rules: no object held twice, every held object has
  /// a matching table holder, and the waited-on queue contains the txn.
  void CheckTxn(Auditor* auditor, TxnId txn, const TxnRec& rec) const;

  /// Builds the waits-for graph of the non-doomed waiters (all of them, or
  /// only what `roots` reach when given) and reports a cycle as a permanent
  /// block.
  void CheckWaitsFor(Auditor* auditor, const SmallIdSet& doomed,
                     const std::vector<TxnId>* roots) const;

  /// Grants the longest grantable prefix of `entry`'s queue, appending the
  /// beneficiaries to `granted`.
  void ProcessQueue(ObjectId obj, Entry& entry, std::vector<TxnId>* granted);

  /// Keeps occupied_count_ in sync after `entry` gains or loses its last
  /// holder/waiter.
  void SyncOccupancy(Entry& entry);

  GranuleTable<Entry> table_;
  TxnSlotMap<TxnRec> txns_;
  ListPool<Holder> holders_;
  ListPool<Waiter> waiters_;
  size_t waiting_count_ = 0;
  size_t occupied_count_ = 0;
  std::vector<TxnId> granted_scratch_;    ///< ReleaseAll result buffer.
  std::vector<ObjectId> affected_scratch_;
  LockManagerStats stats_;
  Auditor* auditor_ = nullptr;

  // Change set of the incremental audit (filled only while auditor_ is set).
  std::vector<ObjectId> dirty_objects_;
  std::vector<TxnId> dirty_txns_;
  // Checker-owned scratch, reused by every check so auditing allocates
  // nothing once warm. (Mutable: the full scan is const.)
  mutable std::vector<ObjectId> audit_objects_;
  mutable std::vector<TxnId> audit_blockers_;
  mutable std::vector<TxnId> audit_worklist_;
  mutable SmallIdSet audit_visited_;
  mutable WaitsForSnapshot audit_graph_;
};

}  // namespace ccsim

#endif  // CCSIM_CC_LOCK_MANAGER_H_
