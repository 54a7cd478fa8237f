// Dynamic two-phase locking with four conflict rules: the paper's blocking
// and immediate-restart algorithms, and the wound-wait and wait-die
// extensions.
//
// All four share the locking rules: reads take shared locks, writes upgrade
// them to exclusive, and every lock is released together at end of
// transaction, after the deferred updates. They differ only in what a
// request that cannot be granted does:
//
//  * blocking — the requester waits; deadlock detection runs at every block
//    and restarts a cycle member (the youngest, unless configured).
//  * immediate_restart — the request is denied and the requester restarts.
//    The engine delays the restart (adaptive delay ≈ one mean response time)
//    so the conflicting transaction can finish; without the delay the same
//    conflict recurs immediately. No wait queues form, so no deadlocks.
//  * wound_wait — an older requester wounds (restarts) every younger
//    transaction blocking it, then waits; a younger requester simply waits.
//  * wait_die — an older requester waits; a younger requester dies
//    (restarts itself).
//
// Wound-wait and wait-die compare the transaction's *original* submission
// time, which is stable across restarts, so every transaction eventually
// becomes the oldest and finishes. The classic schemes assume waiters are
// blocked only by lock *holders*. Our lock manager adds queue-fairness edges
// (a waiter is also blocked by earlier waiters), and upgrade requests jump to
// the front of the queue, which can create a wait edge the wound-wait rule
// never examined. Wait-die stays deadlock-free regardless (every wait edge
// points from an older to a younger transaction), but wound-wait does not,
// so wound-wait also runs the cycle detector at each block as a safety net,
// always with the youngest-victim policy.
#ifndef CCSIM_CC_LOCKING_H_
#define CCSIM_CC_LOCKING_H_

#include <optional>
#include <string>
#include <vector>

#include "cc/concurrency_control.h"
#include "cc/deadlock.h"
#include "cc/lock_manager.h"
#include "obs/registry.h"
#include "util/dense_table.h"

namespace ccsim {

class LockingCC : public ConcurrencyControl {
 public:
  /// True if `algorithm` names one of the conflict rules: "blocking",
  /// "immediate_restart", "wound_wait" or "wait_die".
  static bool Implements(const std::string& algorithm);

  /// `algorithm` must satisfy Implements. `victim_policy` picks blocking's
  /// deadlock victims; the other rules ignore it.
  explicit LockingCC(const std::string& algorithm,
                     VictimPolicy victim_policy = VictimPolicy::kYoungest);

  // The victim context and the stats gauges capture `this`.
  LockingCC(const LockingCC&) = delete;
  LockingCC& operator=(const LockingCC&) = delete;

  std::string name() const override { return name_; }

  void ReserveCapacity(int64_t num_objects, int num_txns) override;

  void OnBegin(TxnId txn, SimTime first_start,
               SimTime incarnation_start) override;
  CCDecision ReadRequest(TxnId txn, ObjectId obj) override {
    return Request(txn, obj, LockMode::kShared);
  }
  CCDecision WriteRequest(TxnId txn, ObjectId obj) override {
    return Request(txn, obj, LockMode::kExclusive);
  }
  bool Validate(TxnId txn) override { (void)txn; return true; }
  void Commit(TxnId txn) override;
  void Abort(TxnId txn) override;

  void SetAuditor(Auditor* auditor) override {
    auditor_ = auditor;
    locks_.SetAuditor(auditor);
  }
  bool AuditTracksWaiter(TxnId txn) const override {
    return locks_.IsWaiting(txn);
  }
  void AuditCheck() const override { locks_.AuditCheck(auditor_, doomed_); }
  void AuditChanges() override { locks_.AuditChanges(auditor_, doomed_); }
  size_t AuditScanPeriod() const override { return locks_.audit_scan_size(); }

  void RegisterStats(StatsRegistry* registry) override;

 private:
  enum class Rule { kBlock, kRestart, kWoundWait, kWaitDie };

  struct Starts {
    SimTime first = 0;        ///< Original submission (wound-wait, wait-die).
    SimTime incarnation = 0;  ///< This incarnation (deadlock victim choice).
  };

  /// The rule `algorithm` names; nullopt if it names none.
  static std::optional<Rule> RuleOf(const std::string& algorithm);

  CCDecision Request(TxnId txn, ObjectId obj, LockMode mode);

  /// The requester has been queued: resolves the deadlocks through it and
  /// decides whether it waits or restarts.
  CCDecision WaitOrBreakDeadlock(TxnId txn, ObjectId obj);

  /// Announces that `victim` must restart so `winner`'s request on `obj` can
  /// proceed; the engine executes the abort later.
  void Doom(TxnId victim, TxnId winner, ObjectId obj);

  /// The first transaction `txn`'s pending request waits behind (its blame
  /// opponent), or kInvalidTxn.
  TxnId FirstBlocker(TxnId txn);

  /// True if `a` is older than `b` (earlier first submission; id breaks ties).
  bool Older(TxnId a, TxnId b) const;

  /// Releases txn's locks and its pending request, forwarding the grants.
  void ReleaseAndNotify(TxnId txn);

  std::string name_;
  Rule rule_;
  LockManager locks_;
  DeadlockDetector detector_;
  TxnSlotMap<Starts> starts_;
  /// Victims announced via on_wound whose Abort() has not arrived yet; the
  /// detector treats them as already gone.
  SmallIdSet doomed_;
  /// Blocker and holder lists (reused across requests).
  std::vector<TxnId> scratch_;
  VictimContext victim_context_;
  /// Reused by every deadlock search, so detection allocates nothing once
  /// warm. Safe while its victims are walked because on_wound does not
  /// re-enter the algorithm (the engine defers aborts to events).
  DeadlockResolution resolution_;

  // Observability (null unless RegisterStats was called).
  ObsCounter* deadlock_searches_ = nullptr;
  Histogram* cycle_length_hist_ = nullptr;
};

}  // namespace ccsim

#endif  // CCSIM_CC_LOCKING_H_
