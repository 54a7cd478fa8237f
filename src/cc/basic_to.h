// Basic timestamp ordering (BTO) — the third basic concurrency control
// mechanism of the literature the paper reconciles ([Gall82] compared
// locking against basic T/O; [Lin83] added multiversion T/O).
//
// Each incarnation receives a unique, monotonically increasing timestamp.
// Per object the algorithm tracks the largest committed write timestamp
// (wts), the largest granted read timestamp (rts), and at most one pending
// (prewritten, uncommitted) write:
//
//  * read(T, x):   restart T if ts(T) < wts(x) — T arrived too late to read
//                  the version it should have seen. If a pending write with
//                  smaller timestamp exists, T waits for it to resolve
//                  (reads return committed data only). Otherwise grant and
//                  raise rts(x).
//  * prewrite(T, x): restart T if ts(T) < rts(x) or ts(T) < wts(x). If a
//                  pending write exists: wait behind a smaller-timestamp
//                  pending (writes commit in timestamp order), restart if
//                  the pending is newer. Otherwise T becomes the pending
//                  writer.
//  * commit(T):    each prewritten object publishes wts(x) = ts(T); waiters
//                  wake and re-issue their requests (the engine re-runs the
//                  check, which may grant, re-block, or restart them).
//
// Waits only ever point to an older pending writer, so the wait graph is
// acyclic and no deadlock detection is needed. A restarted incarnation gets
// a fresh (larger) timestamp, so the same rejection cannot repeat and no
// restart delay is required.
#ifndef CCSIM_CC_BASIC_TO_H_
#define CCSIM_CC_BASIC_TO_H_

#include <cstdint>
#include <vector>

#include "cc/concurrency_control.h"
#include "cc/granule_waits.h"
#include "util/dense_table.h"

namespace ccsim {

class BasicTimestampOrderingCC : public ConcurrencyControl {
 public:
  BasicTimestampOrderingCC() = default;

  std::string name() const override { return "basic_to"; }

  void ReserveCapacity(int64_t num_objects, int num_txns) override {
    objects_.Reserve(static_cast<size_t>(num_objects));
    active_.Reserve(static_cast<size_t>(num_txns));
    waits_.Reserve(static_cast<size_t>(num_objects),
                   static_cast<size_t>(num_txns));
  }

  void OnBegin(TxnId txn, SimTime first_start,
               SimTime incarnation_start) override;
  CCDecision ReadRequest(TxnId txn, ObjectId obj) override;
  CCDecision WriteRequest(TxnId txn, ObjectId obj) override;
  bool Validate(TxnId txn) override { (void)txn; return true; }
  void Commit(TxnId txn) override;
  void Abort(TxnId txn) override;

  bool AuditTracksWaiter(TxnId txn) const override {
    return waits_.Tracks(txn);
  }
  void AuditCheck() const override;

  /// The logical timestamp of an active transaction (tests).
  uint64_t TimestampOf(TxnId txn) const { return active_.At(txn).ts; }

 private:
  struct TxnState {
    uint64_t ts = 0;
    /// Objects this transaction has prewritten (pending writes to publish).
    std::vector<ObjectId> prewrites;
    /// Slot-reuse reset; keeps the prewrite buffer's capacity.
    void Recycle() {
      ts = 0;
      prewrites.clear();
    }
  };
  struct ObjectState {
    uint64_t rts = 0;  ///< Largest granted read timestamp.
    uint64_t wts = 0;  ///< Largest committed write timestamp.
    /// Who set rts/wts last (blame attribution only — two plain assignments
    /// on the grant paths; never consulted by any ordering decision).
    TxnId last_reader = kInvalidTxn;
    TxnId last_writer = kInvalidTxn;
    TxnId pending_writer = kInvalidTxn;
    uint64_t pending_ts = 0;
  };

  /// Resolves (commits with publish=true, discards otherwise) txn's pending
  /// prewrites and wakes every waiter on the touched objects.
  void ResolvePrewrites(TxnState& state, bool publish);

  TxnSlotMap<TxnState> active_;
  GranuleTable<ObjectState> objects_;
  /// Transactions waiting for an object's pending write to resolve.
  GranuleWaits waits_;
  uint64_t next_ts_ = 1;
};

}  // namespace ccsim

#endif  // CCSIM_CC_BASIC_TO_H_
