#include "cc/optimistic.h"

#include <algorithm>

#include "util/check.h"

namespace ccsim {

void OptimisticCC::OnBegin(TxnId txn, SimTime first_start,
                           SimTime incarnation_start) {
  (void)first_start;
  TxnState& state = active_.Upsert(txn);
  state.Recycle();  // Fresh incarnation state; buffers keep their capacity.
  state.start = incarnation_start;
}

namespace {

void InsertUnique(std::vector<ObjectId>& set, ObjectId obj) {
  if (std::find(set.begin(), set.end(), obj) == set.end()) set.push_back(obj);
}

}  // namespace

CCDecision OptimisticCC::ReadRequest(TxnId txn, ObjectId obj) {
  InsertUnique(active_.At(txn).reads, obj);
  return CCDecision::kGranted;
}

CCDecision OptimisticCC::WriteRequest(TxnId txn, ObjectId obj) {
  TxnState& state = active_.At(txn);
  // In this model every written object is also read (and under static write
  // locking the engine declares the write *instead of* the read), so a write
  // declaration implies readset membership for validation purposes.
  InsertUnique(state.reads, obj);
  InsertUnique(state.writes, obj);
  return CCDecision::kGranted;
}

bool OptimisticCC::Validate(TxnId txn) {
  TxnState& state = active_.At(txn);
  for (ObjectId obj : state.reads) {
    const CommittedWrite* committed = committed_writes_.Find(obj);
    if (committed != nullptr && committed->time > state.start) {
      ++stats_.validation_failures;
      if (callbacks_.on_blame) {
        callbacks_.on_blame(txn, committed->writer, obj,
                            BlameKind::kValidation);
      }
      return false;
    }
    const TxnId flusher = claims_.Holder(obj);
    if (flusher != kInvalidTxn) {
      // A validated transaction is writing this object; it will commit before
      // us, inside our lifetime.
      ++stats_.validation_failures;
      if (callbacks_.on_blame) {
        callbacks_.on_blame(txn, flusher, obj, BlameKind::kValidation);
      }
      return false;
    }
  }
  // Validation succeeded: claim the write set for the flush phase so later
  // validators see the in-flight writes.
  state.validated = true;
  claims_.Claim(txn, state.writes);
  return true;
}

void OptimisticCC::Commit(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  CCSIM_CHECK(state->validated) << "commit without successful validation";
  SimTime now = callbacks_.now();
  for (ObjectId obj : state->writes) {
    committed_writes_.Touch(obj) = CommittedWrite{now, txn};
    claims_.Release(txn, obj);
  }
  active_.Erase(txn);
}

void OptimisticCC::Abort(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  // Aborts only happen at validation time, before the write set is claimed —
  // but release any claim defensively if an engine extension aborts later.
  if (state->validated) claims_.Release(txn, state->writes);
  active_.Erase(txn);
}

SimTime OptimisticCC::LastCommittedWrite(ObjectId obj) const {
  const CommittedWrite* committed = committed_writes_.Find(obj);
  return committed == nullptr ? -1 : committed->time;
}

void OptimisticCC::AuditCheck() const {
  if (auditor_ != nullptr) claims_.AuditCheck(auditor_, active_);
}

}  // namespace ccsim
