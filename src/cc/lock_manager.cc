#include "cc/lock_manager.h"

#include <algorithm>
#include <sstream>

#include "audit/audit.h"
#include "util/check.h"

namespace ccsim {

namespace {

bool ModeConflicts(LockMode held, LockMode wanted) {
  return held == LockMode::kExclusive || wanted == LockMode::kExclusive;
}

}  // namespace

bool LockManager::HolderBlocks(const Holder& h, const Waiter& w) {
  return h.txn != w.txn && (w.upgrade || ModeConflicts(h.mode, w.mode));
}

void LockManager::Reserve(size_t num_objects, size_t num_txns) {
  table_.Reserve(num_objects);
  txns_.Reserve(num_txns);
  // Each transaction waits on at most one object, so num_txns bounds the
  // number of live waiter nodes. (Holder nodes grow amortized to the peak
  // number of locks held at once.)
  waiters_.Reserve(num_txns);
  granted_scratch_.reserve(num_txns);
  affected_scratch_.reserve(num_txns);
  dirty_txns_.reserve(num_txns);
}

bool LockManager::CompatibleWithHolders(const Entry& entry, TxnId txn,
                                        LockMode mode, bool upgrade) const {
  const Holder* incompatible =
      holders_.FindIf(entry.holders, [&](const Holder& h) {
        // An upgrade is grantable iff the requester is the only holder.
        if (upgrade) return h.txn != txn;
        CCSIM_CHECK_NE(h.txn, txn) << "non-upgrade request by a holder";
        return ModeConflicts(h.mode, mode);
      });
  return incompatible == nullptr;
}

const LockManager::Holder* LockManager::FindHolder(const Entry& entry,
                                                   TxnId txn) const {
  return holders_.FindIf(entry.holders,
                         [txn](const Holder& h) { return h.txn == txn; });
}

LockManager::Entry& LockManager::MutableEntry(ObjectId obj) {
  Entry& entry = table_.Touch(obj);
  if (auditor_ != nullptr && !entry.dirty) {
    entry.dirty = true;
    dirty_objects_.push_back(obj);
  }
  return entry;
}

LockManager::TxnRec& LockManager::MutableRec(TxnId txn) {
  TxnRec& rec = txns_.Upsert(txn);
  if (auditor_ != nullptr && rec.dirty_pos < 0) {
    rec.dirty_pos = static_cast<int32_t>(dirty_txns_.size());
    dirty_txns_.push_back(txn);
  }
  return rec;
}

void LockManager::EraseRec(TxnId txn, const TxnRec& rec) {
  if (rec.dirty_pos >= 0) {
    // Swap-remove from the change set: an erased record has nothing left to
    // check (its granules are in the change set themselves).
    const auto pos = static_cast<size_t>(rec.dirty_pos);
    const TxnId moved = dirty_txns_.back();
    dirty_txns_[pos] = moved;
    dirty_txns_.pop_back();
    if (moved != txn) txns_.At(moved).dirty_pos = rec.dirty_pos;
  }
  txns_.Erase(txn);
}

void LockManager::SyncOccupancy(Entry& entry) {
  const bool now = !entry.holders.empty() || !entry.queue.empty();
  if (now != entry.occupied) {
    entry.occupied = now;
    if (now) {
      ++occupied_count_;
    } else {
      --occupied_count_;
    }
  }
}

LockRequestOutcome LockManager::Request(TxnId txn, ObjectId obj, LockMode mode,
                                        bool enqueue_on_conflict) {
  CCSIM_CHECK(!IsWaiting(txn)) << "txn " << txn << " issued a request while waiting";
  ++stats_.requests;
  Entry& entry = MutableEntry(obj);

  // Locate an existing holder record for idempotent re-requests and upgrades.
  Holder* mine = FindHolder(entry, txn);

  if (mine != nullptr) {
    if (mode == LockMode::kShared || mine->mode == LockMode::kExclusive) {
      ++stats_.immediate_grants;  // Already sufficient.
      return LockRequestOutcome::kGranted;
    }
    // Upgrade S -> X.
    ++stats_.upgrades_requested;
    if (CompatibleWithHolders(entry, txn, mode, /*upgrade=*/true)) {
      mine->mode = LockMode::kExclusive;
      ++stats_.immediate_grants;
      if (auditor_ != nullptr) {
        auditor_->OnLockAcquired(txn, obj, /*exclusive=*/true);
      }
      return LockRequestOutcome::kGranted;
    }
    if (!enqueue_on_conflict) {
      ++stats_.denials;
      return LockRequestOutcome::kDenied;
    }
    // Upgraders wait ahead of ordinary waiters, FIFO among themselves.
    waiters_.InsertAfterPrefix(
        entry.queue, [](const Waiter& w) { return w.upgrade; },
        Waiter{txn, LockMode::kExclusive, /*upgrade=*/true});
    MutableRec(txn).waiting_on = obj;
    ++waiting_count_;
    ++stats_.waits;
    return LockRequestOutcome::kWaiting;
  }

  // Fresh request: no queue jumping.
  if (entry.queue.empty() &&
      CompatibleWithHolders(entry, txn, mode, /*upgrade=*/false)) {
    holders_.PushBack(entry.holders, Holder{txn, mode});
    MutableRec(txn).held.push_back(obj);
    SyncOccupancy(entry);
    ++stats_.immediate_grants;
    if (auditor_ != nullptr) {
      auditor_->OnLockAcquired(txn, obj, mode == LockMode::kExclusive);
    }
    return LockRequestOutcome::kGranted;
  }
  if (!enqueue_on_conflict) {
    ++stats_.denials;
    return LockRequestOutcome::kDenied;
  }
  waiters_.PushBack(entry.queue, Waiter{txn, mode, /*upgrade=*/false});
  MutableRec(txn).waiting_on = obj;
  SyncOccupancy(entry);
  ++waiting_count_;
  ++stats_.waits;
  return LockRequestOutcome::kWaiting;
}

void LockManager::ProcessQueue(ObjectId obj, Entry& entry,
                               std::vector<TxnId>* granted) {
  while (!entry.queue.empty()) {
    const Waiter w = waiters_.Front(entry.queue);
    const LockMode mode = w.upgrade ? LockMode::kExclusive : w.mode;
    if (!CompatibleWithHolders(entry, w.txn, mode, w.upgrade)) return;
    TxnRec& rec = MutableRec(w.txn);
    if (w.upgrade) {
      Holder* upgrader = FindHolder(entry, w.txn);
      CCSIM_CHECK(upgrader != nullptr) << "upgrade waiter holds no lock";
      upgrader->mode = LockMode::kExclusive;
    } else {
      holders_.PushBack(entry.holders, Holder{w.txn, mode});
      rec.held.push_back(obj);
    }
    if (auditor_ != nullptr) {
      auditor_->OnLockAcquired(w.txn, obj, mode == LockMode::kExclusive);
    }
    rec.waiting_on = -1;
    --waiting_count_;
    granted->push_back(w.txn);
    ++stats_.deferred_grants;
    waiters_.PopFront(entry.queue);
  }
}

const std::vector<TxnId>& LockManager::ReleaseAll(TxnId txn) {
  granted_scratch_.clear();
  affected_scratch_.clear();

  TxnRec* rec = txns_.Find(txn);
  if (rec == nullptr) return granted_scratch_;

  // Cancel a pending request, if any.
  const bool had_pending = rec->waiting_on >= 0;
  const ObjectId pending_obj = rec->waiting_on;
  if (had_pending) {
    const bool queued = waiters_.RemoveFirst(
        MutableEntry(pending_obj).queue,
        [txn](const Waiter& w) { return w.txn == txn; });
    CCSIM_CHECK(queued) << "txn " << txn << " not found in wait queue";
    --waiting_count_;
    affected_scratch_.push_back(pending_obj);
  }

  // Release held locks. A cancelled upgrade's object is both the pending
  // object and a held one; skip the duplicate so each object is processed
  // exactly once (the first occurrence keeps its place in the order).
  if (auditor_ != nullptr && !rec->held.empty()) {
    auditor_->OnLockReleased(txn);
  }
  for (ObjectId obj : rec->held) {
    const bool held = holders_.RemoveFirst(
        MutableEntry(obj).holders,
        [txn](const Holder& h) { return h.txn == txn; });
    CCSIM_CHECK(held) << "txn " << txn << " holds no lock to release";
    if (!had_pending || obj != pending_obj) affected_scratch_.push_back(obj);
  }
  EraseRec(txn, *rec);

  for (ObjectId obj : affected_scratch_) {
    Entry& entry = MutableEntry(obj);
    ProcessQueue(obj, entry, &granted_scratch_);
    SyncOccupancy(entry);
  }
  return granted_scratch_;
}

bool LockManager::IsWaiting(TxnId txn) const {
  const TxnRec* rec = txns_.Find(txn);
  return rec != nullptr && rec->waiting_on >= 0;
}

std::optional<ObjectId> LockManager::WaitingOn(TxnId txn) const {
  const TxnRec* rec = txns_.Find(txn);
  if (rec == nullptr || rec->waiting_on < 0) return std::nullopt;
  return rec->waiting_on;
}

std::vector<TxnId> LockManager::BlockersOf(TxnId txn) const {
  std::vector<TxnId> blockers;
  AppendBlockersOf(txn, &blockers);
  return blockers;
}

void LockManager::AppendBlockersOf(TxnId txn, std::vector<TxnId>* out) const {
  out->clear();
  const TxnRec* rec = txns_.Find(txn);
  if (rec == nullptr || rec->waiting_on < 0) return;
  const Entry* entry = table_.Find(rec->waiting_on);
  CCSIM_CHECK(entry != nullptr);

  // Every earlier waiter blocks us (prefix-grant policy).
  const Waiter* mine = waiters_.FindIf(entry->queue, [&](const Waiter& w) {
    if (w.txn == txn) return true;
    out->push_back(w.txn);
    return false;
  });
  CCSIM_CHECK(mine != nullptr);
  // Conflicting holders block us.
  holders_.ForEach(entry->holders, [&](const Holder& h) {
    if (HolderBlocks(h, *mine)) out->push_back(h.txn);
  });
  // De-duplicate (a txn could be both holder and earlier waiter on upgrades).
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

bool LockManager::BlocksAnyWaiter(TxnId txn,
                                  const SmallIdSet& excluded) const {
  const TxnRec* rec = txns_.Find(txn);
  if (rec == nullptr) return false;
  // Holder edges, from the waiters on the granules `txn` holds.
  for (ObjectId obj : rec->held) {
    const Entry* entry = table_.Find(obj);
    CCSIM_CHECK(entry != nullptr);
    if (entry->queue.empty()) continue;
    const Holder* mine = FindHolder(*entry, txn);
    CCSIM_CHECK(mine != nullptr);
    const Waiter* blocked = waiters_.FindIf(entry->queue, [&](const Waiter& w) {
      return HolderBlocks(*mine, w) && excluded.count(w.txn) == 0;
    });
    if (blocked != nullptr) return true;
  }
  if (rec->waiting_on < 0) return false;
  // Queue edges: every waiter behind `txn` is blocked by it.
  bool behind = false;
  const Waiter* blocked = waiters_.FindIf(
      table_.Find(rec->waiting_on)->queue, [&](const Waiter& w) {
        if (w.txn == txn) {
          behind = true;
          return false;
        }
        return behind && excluded.count(w.txn) == 0;
      });
  return blocked != nullptr;
}

void LockManager::AppendHoldersOf(ObjectId obj, std::vector<TxnId>* out) const {
  out->clear();
  const Entry* entry = table_.Find(obj);
  if (entry == nullptr) return;
  holders_.ForEach(entry->holders,
                   [&](const Holder& h) { out->push_back(h.txn); });
}

bool LockManager::HoldsAtLeast(TxnId txn, ObjectId obj, LockMode mode) const {
  const Entry* entry = table_.Find(obj);
  if (entry == nullptr) return false;
  const Holder* h = FindHolder(*entry, txn);
  return h != nullptr &&
         (mode == LockMode::kShared || h->mode == LockMode::kExclusive);
}

size_t LockManager::NumHeld(TxnId txn) const {
  const TxnRec* rec = txns_.Find(txn);
  return rec == nullptr ? 0 : rec->held.size();
}

void LockManager::CheckEntry(Auditor* auditor, ObjectId obj,
                             const Entry& entry) const {
  auto report = [auditor](TxnId txn, const std::string& detail) {
    auditor->Report(AuditInvariant::kWaitsForConsistency, txn, detail);
  };
  // Empty entries are normal with dense slots (granules keep their slot
  // after the last holder leaves); what must hold is that the occupancy
  // flag agrees with the contents.
  const bool nonempty = !entry.holders.empty() || !entry.queue.empty();
  if (entry.occupied != nonempty) {
    std::ostringstream detail;
    detail << "object " << obj << " occupancy flag disagrees with contents";
    report(kInvalidTxn, detail.str());
  }
  int exclusive_holders = 0;
  int holders_seen = 0;
  holders_.ForEach(entry.holders, [&](const Holder& h) {
    ++holders_seen;
    if (FindHolder(entry, h.txn) != &h) {
      std::ostringstream detail;
      detail << "txn appears twice among holders of object " << obj;
      report(h.txn, detail.str());
    }
    if (h.mode == LockMode::kExclusive) ++exclusive_holders;
    const TxnRec* rec = txns_.Find(h.txn);
    if (rec == nullptr ||
        std::find(rec->held.begin(), rec->held.end(), obj) ==
            rec->held.end()) {
      std::ostringstream detail;
      detail << "holder of object " << obj << " missing from held index";
      report(h.txn, detail.str());
    }
  });
  if (exclusive_holders > 0 && holders_seen > 1) {
    std::ostringstream detail;
    detail << "object " << obj << " has an exclusive holder alongside "
           << holders_seen - 1 << " other holder(s)";
    report(holders_.Front(entry.holders).txn, detail.str());
  }
  waiters_.ForEach(entry.queue, [&](const Waiter& w) {
    const TxnRec* rec = txns_.Find(w.txn);
    if (rec == nullptr || rec->waiting_on != obj) {
      std::ostringstream detail;
      detail << "queued waiter on object " << obj
             << " missing from waiting index";
      report(w.txn, detail.str());
    }
    if (w.upgrade) {
      if (FindHolder(entry, w.txn) == nullptr) {
        std::ostringstream detail;
        detail << "upgrade waiter on object " << obj
               << " holds no lock to upgrade";
        report(w.txn, detail.str());
      }
      if (w.mode != LockMode::kExclusive) {
        std::ostringstream detail;
        detail << "upgrade waiter on object " << obj
               << " records a non-exclusive mode";
        report(w.txn, detail.str());
      }
    }
  });
  // Every later waiter is blocked by the front one (prefix grants), so the
  // queue is live iff its front conflicts with some other holder. Prefix
  // grants run at every release, so a front waiter with nothing in its way
  // should have been granted already: its wake-up is lost.
  if (entry.queue.empty()) return;
  const Waiter& front = waiters_.Front(entry.queue);
  const Holder* in_way = holders_.FindIf(
      entry.holders, [&](const Holder& h) { return HolderBlocks(h, front); });
  if (in_way == nullptr) {
    std::ostringstream detail;
    detail << "waiter on object " << obj
           << " has no blockers yet was never granted";
    auditor->Report(AuditInvariant::kPermanentBlock, front.txn, detail.str());
  }
}

void LockManager::CheckTxn(Auditor* auditor, TxnId txn,
                           const TxnRec& rec) const {
  auto report = [auditor, txn](const std::string& detail) {
    auditor->Report(AuditInvariant::kWaitsForConsistency, txn, detail);
  };
  // No object twice. Held lists are a transaction's size (a handful), where
  // a quadratic scan beats copying and sorting; long ones are sorted.
  auto report_twice = [&](ObjectId obj) {
    std::ostringstream detail;
    detail << "held index lists object " << obj << " twice";
    report(detail.str());
  };
  constexpr size_t kScanLimit = 32;
  if (rec.held.size() <= kScanLimit) {
    for (auto it = rec.held.begin(); it != rec.held.end(); ++it) {
      if (std::find(rec.held.begin(), it, *it) != it) report_twice(*it);
    }
  } else {
    audit_objects_.assign(rec.held.begin(), rec.held.end());
    std::sort(audit_objects_.begin(), audit_objects_.end());
    for (size_t i = 1; i < audit_objects_.size(); ++i) {
      if (audit_objects_[i] == audit_objects_[i - 1]) {
        report_twice(audit_objects_[i]);
      }
    }
  }
  for (ObjectId obj : rec.held) {
    const Entry* entry = table_.Find(obj);
    if (entry == nullptr || FindHolder(*entry, txn) == nullptr) {
      std::ostringstream detail;
      detail << "held index lists object " << obj
             << " without a matching table holder";
      report(detail.str());
    }
  }
  if (rec.waiting_on < 0) return;
  const Entry* entry = table_.Find(rec.waiting_on);
  const bool queued =
      entry != nullptr &&
      waiters_.FindIf(entry->queue, [txn](const Waiter& w) {
        return w.txn == txn;
      }) != nullptr;
  if (!queued) {
    std::ostringstream detail;
    detail << "waiting index points at object " << rec.waiting_on
           << " whose queue does not contain the txn";
    report(detail.str());
  }
}

void LockManager::CheckWaitsFor(Auditor* auditor, const SmallIdSet& doomed,
                                const std::vector<TxnId>* roots) const {
  audit_graph_.Clear();
  audit_visited_.clear();
  audit_worklist_.clear();
  // Adds a non-doomed waiter's edges to non-doomed blockers; with `roots`,
  // queues each blocker so the graph grows to what the roots reach.
  auto add_edges = [&](TxnId txn, const TxnRec& rec) {
    if (rec.waiting_on < 0 || doomed.count(txn) > 0) return;
    // A waiter missing from its queue has no blocker set (CheckTxn reports
    // it); AppendBlockersOf requires the queue entry.
    const Entry* entry = table_.Find(rec.waiting_on);
    if (entry == nullptr ||
        waiters_.FindIf(entry->queue, [txn](const Waiter& w) {
          return w.txn == txn;
        }) == nullptr) {
      return;
    }
    AppendBlockersOf(txn, &audit_blockers_);
    for (TxnId blocker : audit_blockers_) {
      if (doomed.count(blocker) > 0) continue;
      audit_graph_.AddEdge(txn, blocker);
      if (roots != nullptr) audit_worklist_.push_back(blocker);
    }
  };
  if (roots == nullptr) {
    txns_.ForEach(add_edges);
  } else {
    audit_worklist_.assign(roots->begin(), roots->end());
    while (!audit_worklist_.empty()) {
      const TxnId txn = audit_worklist_.back();
      audit_worklist_.pop_back();
      if (!audit_visited_.insert(txn)) continue;
      if (const TxnRec* rec = txns_.Find(txn)) add_edges(txn, *rec);
    }
  }
  // A waits-for cycle among non-doomed transactions is a permanent block:
  // no future release can ever wake any member.
  std::vector<TxnId> cycle = audit_graph_.FindCycle();
  if (!cycle.empty()) {
    std::ostringstream detail;
    detail << "waits-for cycle with no pending resolution:";
    for (TxnId member : cycle) detail << " " << member;
    auditor->Report(AuditInvariant::kPermanentBlock, cycle.front(),
                    detail.str());
  }
}

void LockManager::AuditCheck(Auditor* auditor, const SmallIdSet& doomed) const {
  if (auditor == nullptr) return;
  auto report = [auditor](const std::string& detail) {
    auditor->Report(AuditInvariant::kWaitsForConsistency, kInvalidTxn, detail);
  };
  size_t occupied_seen = 0;
  table_.ForEachTouched([&](ObjectId obj, const Entry& entry) {
    if (entry.occupied) ++occupied_seen;
    CheckEntry(auditor, obj, entry);
  });
  if (occupied_seen != occupied_count_) {
    std::ostringstream detail;
    detail << "occupancy counter " << occupied_count_ << " disagrees with "
           << occupied_seen << " occupied entries";
    report(detail.str());
  }
  size_t waiting_seen = 0;
  txns_.ForEach([&](TxnId txn, const TxnRec& rec) {
    if (rec.waiting_on >= 0) ++waiting_seen;
    CheckTxn(auditor, txn, rec);
  });
  if (waiting_seen != waiting_count_) {
    std::ostringstream detail;
    detail << "waiting counter " << waiting_count_ << " disagrees with "
           << waiting_seen << " queued waiters";
    report(detail.str());
  }
  CheckWaitsFor(auditor, doomed, /*roots=*/nullptr);
}

void LockManager::AuditChanges(Auditor* auditor, const SmallIdSet& doomed) {
  if (auditor == nullptr) return;
  for (ObjectId obj : dirty_objects_) {
    Entry& entry = table_.Touch(obj);
    entry.dirty = false;
    CheckEntry(auditor, obj, entry);
  }
  dirty_objects_.clear();
  // A changed record that is waiting now was queued since the last pass: a
  // waiting transaction issues no requests, and a grant clears its wait.
  bool waiter_queued = false;
  for (TxnId txn : dirty_txns_) {
    TxnRec& rec = txns_.At(txn);
    rec.dirty_pos = -1;
    CheckTxn(auditor, txn, rec);
    if (rec.waiting_on >= 0) waiter_queued = true;
  }
  // Edges into a running transaction can appear without a new waiter, but a
  // cycle needs every member to wait, so a new cycle passes through a new
  // waiter: searching what the new waiters reach finds it.
  if (waiter_queued) CheckWaitsFor(auditor, doomed, &dirty_txns_);
  dirty_txns_.clear();
}

}  // namespace ccsim
