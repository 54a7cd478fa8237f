// Transactions parked on a granule until something there resolves: a
// pending write (basic_to, mvto) or a validated writer's flush
// (optimistic_forward). The lock-table algorithms queue in LockManager
// instead, whose waiters carry a lock mode and a grant rule.
//
// GranuleWaits owns both sides of every wait, so they cannot disagree: each
// granule's FIFO of parked transactions, kept as intrusive lists in one
// ListPool, and each parked transaction's granule. A transaction waits on
// at most one granule at a time. Once Reserve()d to the granule count and
// the transaction population, parking and waking allocate nothing.
#ifndef CCSIM_CC_GRANULE_WAITS_H_
#define CCSIM_CC_GRANULE_WAITS_H_

#include <cstddef>
#include <vector>

#include "cc/types.h"
#include "util/dense_table.h"
#include "util/list_pool.h"

namespace ccsim {

class Auditor;

class GranuleWaits {
 public:
  /// Capacity hint: the granule count and the transaction population.
  void Reserve(size_t num_objects, size_t num_txns);

  /// Queues `txn`, which must not be parked already, behind `obj`'s
  /// waiters.
  void Park(TxnId txn, ObjectId obj);

  /// Takes `txn` off the granule it is parked on, if any (abort).
  void Leave(TxnId txn);

  /// Unparks every waiter on `obj` and returns them in arrival order. The
  /// result is internal scratch, valid until the next TakeAll; callers may
  /// reorder it before waking them.
  std::vector<TxnId>& TakeAll(ObjectId obj);

  bool IsParked(TxnId txn) const { return parked_.Contains(txn); }

  /// True if `txn` is parked and listed on its granule: a wake-up will
  /// reach it (ConcurrencyControl::AuditTracksWaiter).
  bool Tracks(TxnId txn) const;

  /// Calls fn(obj, txn) for every parked transaction, granule by granule,
  /// each granule's waiters in arrival order: the caller's own audit rules
  /// about why a granule has waiters.
  template <typename Fn>
  void ForEachWaiter(Fn&& fn) const {
    lists_.ForEachTouched([&](ObjectId obj, const List& list) {
      nodes_.ForEach(list, [&](TxnId txn) { fn(obj, txn); });
    });
  }

  /// The rules every caller shares, reported as kWaitsForConsistency: each
  /// listed waiter is live (in `active`, the caller's transaction table) and
  /// records the granule it is listed on, and each record is listed on its
  /// granule.
  template <typename State>
  void AuditCheck(Auditor* auditor, const TxnSlotMap<State>& active) const {
    ForEachWaiter([&](ObjectId obj, TxnId txn) {
      if (!active.Contains(txn)) {
        Report(auditor, txn, obj, "inactive txn among waiters of object ");
      } else if (const ObjectId* parked = parked_.Find(txn);
                 parked == nullptr || *parked != obj) {
        Report(auditor, txn, obj, "waiter does not record its wait on object ");
      }
    });
    parked_.ForEach([&](TxnId txn, ObjectId obj) {
      if (!Tracks(txn)) {
        Report(auditor, txn, obj, "parked txn is not listed on object ");
      }
    });
  }

 private:
  friend struct GranuleWaitsTestPeer;
  using List = ListPool<TxnId>::List;

  static void Report(Auditor* auditor, TxnId txn, ObjectId obj,
                     const char* what);

  ListPool<TxnId> nodes_;
  GranuleTable<List> lists_;
  /// Each parked transaction's granule.
  TxnSlotMap<ObjectId> parked_;
  std::vector<TxnId> woken_;  ///< TakeAll's result buffer.
};

}  // namespace ccsim

#endif  // CCSIM_CC_GRANULE_WAITS_H_
