#include "cc/granule_waits.h"

#include <sstream>

#include "audit/audit.h"
#include "util/check.h"

namespace ccsim {

void GranuleWaits::Reserve(size_t num_objects, size_t num_txns) {
  lists_.Reserve(num_objects);
  nodes_.Reserve(num_txns);  // Each transaction waits on one granule at most.
  parked_.Reserve(num_txns);
  woken_.reserve(num_txns);
}

void GranuleWaits::Park(TxnId txn, ObjectId obj) {
  parked_.Insert(txn) = obj;  // Insert checks that txn is not parked yet.
  nodes_.PushBack(lists_.Touch(obj), txn);
}

void GranuleWaits::Leave(TxnId txn) {
  const ObjectId* obj = parked_.Find(txn);
  if (obj == nullptr) return;
  List* list = lists_.Find(*obj);
  const bool listed =
      list != nullptr &&
      nodes_.RemoveFirst(*list, [txn](TxnId waiter) { return waiter == txn; });
  CCSIM_CHECK(listed) << "txn " << txn << " parked on object " << *obj
                      << " but not among its waiters";
  parked_.Erase(txn);
}

std::vector<TxnId>& GranuleWaits::TakeAll(ObjectId obj) {
  woken_.clear();
  List* list = lists_.Find(obj);
  if (list == nullptr) return woken_;
  while (!list->empty()) {
    const TxnId txn = nodes_.Front(*list);
    nodes_.PopFront(*list);
    parked_.Erase(txn);
    woken_.push_back(txn);
  }
  return woken_;
}

bool GranuleWaits::Tracks(TxnId txn) const {
  const ObjectId* obj = parked_.Find(txn);
  if (obj == nullptr) return false;
  const List* list = lists_.Find(*obj);
  return list != nullptr &&
         nodes_.FindIf(*list, [txn](TxnId waiter) { return waiter == txn; }) !=
             nullptr;
}

void GranuleWaits::Report(Auditor* auditor, TxnId txn, ObjectId obj,
                          const char* what) {
  std::ostringstream detail;
  detail << what << obj;
  auditor->Report(AuditInvariant::kWaitsForConsistency, txn, detail.str());
}

}  // namespace ccsim
