// Which validated writer is flushing each granule, for the optimistic
// algorithms. Between its successful validation and its commit a writer's
// deferred updates are in flight; a later validator (optimistic) or reader
// (optimistic_forward) that meets one of those granules must not pass, and
// the claim names the writer to blame.
//
// At most one writer flushes a granule at a time: every written granule is
// also in the writer's read set (WriteRequest puts it there), and validation
// fails on any read that is mid-flush, so a second claim is a CHECK failure.
#ifndef CCSIM_CC_FLUSH_CLAIMS_H_
#define CCSIM_CC_FLUSH_CLAIMS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cc/types.h"
#include "util/check.h"
#include "util/dense_table.h"

namespace ccsim {

class Auditor;

class FlushClaims {
 public:
  /// Capacity hint: the granule count.
  void Reserve(size_t num_objects) { holders_.Reserve(num_objects); }

  /// `writer` validated and starts flushing `objects`.
  void Claim(TxnId writer, const std::vector<ObjectId>& objects) {
    for (ObjectId obj : objects) {
      Entry& entry = holders_.Touch(obj);
      CCSIM_CHECK_EQ(entry.holder, kInvalidTxn)
          << "object " << obj << " is already being flushed by txn "
          << entry.holder << "; txn " << writer << " cannot claim it";
      entry.holder = writer;
    }
  }

  /// `writer`'s flush of `obj` is over (commit, or an abort after
  /// validation).
  void Release(TxnId writer, ObjectId obj) {
    Entry* entry = holders_.Find(obj);
    CCSIM_CHECK(entry != nullptr && entry->holder == writer)
        << "txn " << writer << " releases an unclaimed flush of object " << obj;
    entry->holder = kInvalidTxn;
  }

  /// Release of each of `objects`.
  void Release(TxnId writer, const std::vector<ObjectId>& objects) {
    for (ObjectId obj : objects) Release(writer, obj);
  }

  /// The writer flushing `obj`, or kInvalidTxn.
  TxnId Holder(ObjectId obj) const {
    const Entry* entry = holders_.Find(obj);
    return entry == nullptr ? kInvalidTxn : entry->holder;
  }

  /// Checks the claims against the live transactions' validated write sets
  /// (each State has `validated` and `writes`) in both directions, reported
  /// as kWaitsForConsistency: every claim is held by a validated writer of
  /// that granule, and every validated write is claimed by its writer. A
  /// leaked claim blocks later transactions forever; a lost one lets a
  /// stale read pass.
  template <typename State>
  void AuditCheck(Auditor* auditor, const TxnSlotMap<State>& active) const {
    holders_.ForEachTouched([&](ObjectId obj, const Entry& entry) {
      if (entry.holder == kInvalidTxn) return;  // Released: logically absent.
      const State* writer = active.Find(entry.holder);
      if (writer == nullptr || !writer->validated) {
        Report(auditor, entry.holder, obj,
               "flush claim held by a txn that has not validated: object ");
      } else if (std::find(writer->writes.begin(), writer->writes.end(),
                           obj) == writer->writes.end()) {
        Report(auditor, entry.holder, obj,
               "flush claim outside its holder's write set: object ");
      }
    });
    active.ForEach([&](TxnId txn, const State& state) {
      if (!state.validated) return;
      for (ObjectId obj : state.writes) {
        if (Holder(obj) != txn) {
          Report(auditor, txn, obj,
                 "validated write holds no flush claim: object ");
        }
      }
    });
  }

 private:
  struct Entry {
    TxnId holder = kInvalidTxn;
  };

  static void Report(Auditor* auditor, TxnId txn, ObjectId obj,
                     const char* what);

  GranuleTable<Entry> holders_;
};

}  // namespace ccsim

#endif  // CCSIM_CC_FLUSH_CLAIMS_H_
