// Multiversion timestamp ordering (MVTO) — the multiversion mechanism from
// [Lin83], one of the contradictory studies the paper reconciles. Reads are
// never rejected: each read returns the committed version with the largest
// write timestamp not exceeding the reader's timestamp. Writes create new
// versions and are rejected only when a later-timestamped transaction has
// already read the version the new write would supersede.
//
// Rules (timestamps are unique and monotone per incarnation):
//  * read(T, x):  let v be the latest committed version with wts(v) <= ts(T).
//                 If an uncommitted (pending) write p exists with
//                 wts(v) < ts(p) < ts(T), T must wait — p's version is the
//                 one T is required to read. Otherwise grant, record
//                 rts(v) = max(rts(v), ts(T)), and report the version read.
//  * write(T, x): with v as above, restart T iff rts(v) > ts(T) (a later
//                 reader has already seen the version T's write would
//                 follow). Otherwise T's write becomes a pending version;
//                 multiple pending versions may coexist (no write-write
//                 conflicts in a multiversion store).
//  * commit(T):   pending versions become committed versions; waiters wake
//                 and re-issue their requests.
//
// Readers wait only for *older* pending writers, so waiting is acyclic and
// deadlock-free; only writers restart, with a fresh timestamp that cannot
// repeat the same rejection. Old versions are garbage-collected once no
// active transaction can reach them.
#ifndef CCSIM_CC_MVTO_H_
#define CCSIM_CC_MVTO_H_

#include <cstdint>
#include <vector>

#include "cc/concurrency_control.h"
#include "cc/granule_waits.h"
#include "util/dense_table.h"

namespace ccsim {

class MultiversionTimestampOrderingCC : public ConcurrencyControl {
 public:
  MultiversionTimestampOrderingCC() = default;

  std::string name() const override { return "mvto"; }

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

  /// Number of committed versions currently kept for `obj` (tests/GC).
  size_t VersionCount(ObjectId obj) const;

  uint64_t TimestampOf(TxnId txn) const { return active_.At(txn).ts; }

 private:
  struct Version {
    uint64_t wts = 0;
    TxnId writer = kInvalidTxn;  ///< kInvalidTxn denotes the initial version.
    uint64_t max_rts = 0;        ///< Largest timestamp that read this version.
    /// Who set max_rts (blame attribution only; one assignment on the read
    /// grant path, never consulted by any ordering decision).
    TxnId max_reader = kInvalidTxn;
  };
  struct PendingWrite {
    uint64_t ts = 0;
    TxnId writer = kInvalidTxn;
  };
  struct ObjectState {
    /// Committed versions sorted by wts ascending. An absent object is
    /// equivalent to one holding only the implicit initial version
    /// {wts=0, writer=kInvalidTxn}.
    std::vector<Version> versions;
    std::vector<PendingWrite> pending;
    /// Epoch-reuse reset; keeps every buffer's capacity.
    void Recycle() {
      versions.clear();
      pending.clear();
    }
  };
  struct TxnState {
    uint64_t ts = 0;
    std::vector<ObjectId> prewrites;
    /// Slot-reuse reset; keeps the prewrite buffer's capacity.
    void Recycle() {
      ts = 0;
      prewrites.clear();
    }
  };

  /// The latest committed version with wts <= ts; creates the object entry
  /// (with the initial version) on demand.
  Version& VersionFor(ObjectId obj, uint64_t ts);

  void ResolvePrewrites(TxnState& state, bool publish);

  /// Drops versions unreachable by every active transaction, keeping the
  /// newest reachable one per object.
  void CollectGarbage(ObjectState& object);

  TxnSlotMap<TxnState> active_;
  GranuleTable<ObjectState> objects_;
  /// Readers waiting for an older pending version to resolve.
  GranuleWaits waits_;
  uint64_t next_ts_ = 1;
  /// GC trigger: collect when an object's version list exceeds this.
  static constexpr size_t kGcThreshold = 64;
};

}  // namespace ccsim

#endif  // CCSIM_CC_MVTO_H_
