#include "cc/optimistic_forward.h"

#include <sstream>

#include "audit/audit.h"
#include "util/check.h"

namespace ccsim {

void ForwardOptimisticCC::OnBegin(TxnId txn, SimTime first_start,
                                  SimTime incarnation_start) {
  (void)first_start;
  (void)incarnation_start;
  active_.Upsert(txn).Recycle();  // Fresh state; buffers keep their capacity.
}

bool ForwardOptimisticCC::WaitOutFlush(TxnId txn, ObjectId obj) {
  const TxnId flusher = claims_.Holder(obj);
  if (flusher == kInvalidTxn) return false;
  ++stats_.lock_conflicts;
  if (callbacks_.on_blame) {
    callbacks_.on_blame(txn, flusher, obj, BlameKind::kBlock);
  }
  waits_.Park(txn, obj);
  return true;
}

CCDecision ForwardOptimisticCC::ReadRequest(TxnId txn, ObjectId obj) {
  // The object is mid-flush by a validated transaction; reading now would
  // observe the pre-image with no later check to catch it. Wait out the
  // flush (it completes at the flusher's commit).
  TxnState& state = active_.At(txn);
  if (WaitOutFlush(txn, obj)) return CCDecision::kBlocked;
  state.reads.insert(obj);
  return CCDecision::kGranted;
}

CCDecision ForwardOptimisticCC::WriteRequest(TxnId txn, ObjectId obj) {
  // Written objects are also read in this model (and under static write
  // locking the engine declares the write *instead of* the read), so a
  // write declaration is subject to the same mid-flush rule as a read:
  // proceeding now would observe the pre-image with no later check to
  // catch it — the flusher's forward validation already ran and cannot
  // have wounded us.
  TxnState& state = active_.At(txn);
  if (WaitOutFlush(txn, obj)) return CCDecision::kBlocked;
  state.reads.insert(obj);
  for (ObjectId existing : state.writes) {
    if (existing == obj) return CCDecision::kGranted;
  }
  state.writes.push_back(obj);
  return CCDecision::kGranted;
}

bool ForwardOptimisticCC::Validate(TxnId txn) {
  TxnState& state = active_.At(txn);
  CCSIM_CHECK(!waits_.IsParked(txn)) << "validating while waiting";
  // Defensive: a read admitted before an overlapping flush began means an
  // earlier validator serialized ahead of us on an object we already read.
  for (ObjectId obj : state.reads) {
    const TxnId flusher = claims_.Holder(obj);
    if (flusher != kInvalidTxn) {
      ++stats_.validation_failures;
      if (callbacks_.on_blame) {
        callbacks_.on_blame(txn, flusher, obj, BlameKind::kValidation);
      }
      return false;
    }
  }
  // Forward check: kill every still-running transaction that has read
  // anything we are about to overwrite. Validated (flushing) transactions
  // are never wounded — they serialized before us; their reads of our write
  // set saw the pre-image, which is consistent with that order. Visits run
  // in slot order (see header): deterministic wound order.
  for (ObjectId obj : state.writes) {
    active_.ForEach([&](TxnId other_id, TxnState& other) {
      if (other_id == txn || other.validated || other.doomed) return;
      if (other.reads.count(obj) > 0) {
        other.doomed = true;
        ++stats_.wounds;
        // Forward validation sacrifices the reader in the validator's favor.
        if (callbacks_.on_blame) {
          callbacks_.on_blame(other_id, txn, obj, BlameKind::kWound);
        }
        callbacks_.on_wound(other_id);
      }
    });
  }
  state.validated = true;
  claims_.Claim(txn, state.writes);
  return true;
}

void ForwardOptimisticCC::EndFlush(TxnId txn, const TxnState& state) {
  claims_.Release(txn, state.writes);
  for (ObjectId obj : state.writes) {
    for (TxnId waiter : waits_.TakeAll(obj)) callbacks_.on_granted(waiter);
  }
}

void ForwardOptimisticCC::Commit(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  CCSIM_CHECK(state->validated) << "commit without validation";
  CCSIM_CHECK(!state->doomed) << "doomed txn reached commit";
  EndFlush(txn, *state);
  active_.Erase(txn);
}

void ForwardOptimisticCC::Abort(TxnId txn) {
  TxnState* state = active_.Find(txn);
  CCSIM_CHECK(state != nullptr);
  waits_.Leave(txn);
  if (state->validated) EndFlush(txn, *state);
  active_.Erase(txn);
}

void ForwardOptimisticCC::AuditCheck() const {
  if (auditor_ == nullptr) return;
  claims_.AuditCheck(auditor_, active_);
  waits_.AuditCheck(auditor_, active_);
  // Waiters wait only on objects actually mid-flush; anything else never
  // gets a wake-up.
  waits_.ForEachWaiter([&](ObjectId obj, TxnId waiter) {
    if (claims_.Holder(obj) == kInvalidTxn) {
      std::ostringstream detail;
      detail << "waiter on object " << obj << " which is not being flushed";
      auditor_->Report(AuditInvariant::kPermanentBlock, waiter, detail.str());
    }
  });
}

}  // namespace ccsim
