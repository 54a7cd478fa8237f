#include "cc/locking.h"

#include "util/check.h"

namespace ccsim {

std::optional<LockingCC::Rule> LockingCC::RuleOf(
    const std::string& algorithm) {
  if (algorithm == "blocking") return Rule::kBlock;
  if (algorithm == "immediate_restart") return Rule::kRestart;
  if (algorithm == "wound_wait") return Rule::kWoundWait;
  if (algorithm == "wait_die") return Rule::kWaitDie;
  return std::nullopt;
}

bool LockingCC::Implements(const std::string& algorithm) {
  return RuleOf(algorithm).has_value();
}

LockingCC::LockingCC(const std::string& algorithm, VictimPolicy victim_policy)
    : name_(algorithm),
      rule_([&] {
        std::optional<Rule> rule = RuleOf(algorithm);
        CCSIM_CHECK(rule.has_value())
            << "not a locking algorithm: " << algorithm;
        return *rule;
      }()),
      detector_(&locks_, rule_ == Rule::kBlock ? victim_policy
                                               : VictimPolicy::kYoungest),
      victim_context_{
          [this](TxnId t) { return starts_.At(t).incarnation; },
          [this](TxnId t) { return locks_.NumHeld(t); },
      } {}

void LockingCC::ReserveCapacity(int64_t num_objects, int num_txns) {
  const size_t txns = static_cast<size_t>(num_txns);
  locks_.Reserve(static_cast<size_t>(num_objects), txns);
  detector_.Reserve(txns);
  resolution_.victims.reserve(txns);
  resolution_.cycle_lengths.reserve(txns);
  starts_.Reserve(txns);
  doomed_.reserve(txns);
}

void LockingCC::OnBegin(TxnId txn, SimTime first_start,
                        SimTime incarnation_start) {
  starts_.Upsert(txn) = Starts{first_start, incarnation_start};
  doomed_.erase(txn);
}

bool LockingCC::Older(TxnId a, TxnId b) const {
  SimTime ta = starts_.At(a).first;
  SimTime tb = starts_.At(b).first;
  if (ta != tb) return ta < tb;
  return a < b;  // Smaller id was created first.
}

CCDecision LockingCC::Request(TxnId txn, ObjectId obj, LockMode mode) {
  LockRequestOutcome outcome = locks_.Request(
      txn, obj, mode, /*enqueue_on_conflict=*/rule_ != Rule::kRestart);
  if (outcome == LockRequestOutcome::kGranted) return CCDecision::kGranted;
  CCSIM_CHECK(outcome == (rule_ == Rule::kRestart ? LockRequestOutcome::kDenied
                                                  : LockRequestOutcome::kWaiting));
  ++stats_.lock_conflicts;

  switch (rule_) {
    case Rule::kRestart:
      if (callbacks_.on_blame) {
        // A denied request leaves no queue trace; the holders are the
        // transactions the requester lost to.
        locks_.AppendHoldersOf(obj, &scratch_);
        callbacks_.on_blame(txn, scratch_.empty() ? kInvalidTxn : scratch_[0],
                            obj, BlameKind::kDenied);
      }
      return CCDecision::kRestart;
    case Rule::kWaitDie:
      // Die if any blocker is older; otherwise wait (all blockers younger,
      // so every wait edge points old -> young and no cycle can form).
      locks_.AppendBlockersOf(txn, &scratch_);
      for (TxnId blocker : scratch_) {
        if (Older(blocker, txn)) {
          // The requester dies in the older holder's favor.
          if (callbacks_.on_blame) {
            callbacks_.on_blame(txn, blocker, obj, BlameKind::kDenied);
          }
          return CCDecision::kRestart;
        }
      }
      if (callbacks_.on_blame) {
        callbacks_.on_blame(txn, scratch_.empty() ? kInvalidTxn : scratch_[0],
                            obj, BlameKind::kBlock);
      }
      return CCDecision::kBlocked;
    case Rule::kWoundWait:
      // Wound every younger live blocker, then wait for the older ones.
      locks_.AppendBlockersOf(txn, &scratch_);
      for (TxnId blocker : scratch_) {
        if (doomed_.count(blocker) == 0 && Older(txn, blocker)) {
          ++stats_.wounds;
          Doom(blocker, txn, obj);
        }
      }
      break;
    case Rule::kBlock:
      break;
  }
  return WaitOrBreakDeadlock(txn, obj);
}

CCDecision LockingCC::WaitOrBreakDeadlock(TxnId txn, ObjectId obj) {
  if (deadlock_searches_ != nullptr) deadlock_searches_->Inc();
  detector_.Resolve(txn, doomed_, victim_context_, &resolution_);
  stats_.deadlocks_detected += resolution_.cycles_found;
  if (cycle_length_hist_ != nullptr) {
    for (int length : resolution_.cycle_lengths) {
      cycle_length_hist_->Add(static_cast<double>(length));
    }
  }
  for (TxnId victim : resolution_.victims) {
    ++stats_.deadlock_victims;
    // The victim dies so the requester's cycle breaks: blame the requester.
    Doom(victim, txn, obj);
  }
  if (resolution_.requester_is_victim) {
    ++stats_.deadlock_victims;
    if (callbacks_.on_blame) {
      callbacks_.on_blame(txn, FirstBlocker(txn), obj, BlameKind::kWound);
    }
    // The engine will call Abort(txn), which cancels the queued request and
    // releases the locks this incarnation holds.
    return CCDecision::kRestart;
  }
  if (callbacks_.on_blame) {
    callbacks_.on_blame(txn, FirstBlocker(txn), obj, BlameKind::kBlock);
  }
  return CCDecision::kBlocked;
}

void LockingCC::Doom(TxnId victim, TxnId winner, ObjectId obj) {
  doomed_.insert(victim);
  if (callbacks_.on_blame) {
    callbacks_.on_blame(victim, winner, obj, BlameKind::kWound);
  }
  callbacks_.on_wound(victim);
}

TxnId LockingCC::FirstBlocker(TxnId txn) {
  locks_.AppendBlockersOf(txn, &scratch_);
  return scratch_.empty() ? kInvalidTxn : scratch_[0];
}

void LockingCC::Commit(TxnId txn) {
  CCSIM_CHECK_EQ(doomed_.count(txn), 0u) << "doomed txn reached commit";
  starts_.Erase(txn);
  ReleaseAndNotify(txn);
}

void LockingCC::Abort(TxnId txn) {
  doomed_.erase(txn);
  // The next incarnation's OnBegin restores the original submission time.
  starts_.Erase(txn);
  ReleaseAndNotify(txn);
}

void LockingCC::ReleaseAndNotify(TxnId txn) {
  for (TxnId granted : locks_.ReleaseAll(txn)) {
    callbacks_.on_granted(granted);
  }
}

void LockingCC::RegisterStats(StatsRegistry* registry) {
  // Immediate-restart never queues, so it has no lock-table instruments.
  if (rule_ == Rule::kRestart) return;
  registry->AddGauge("lock_table_objects",
                     [this] { return static_cast<double>(locks_.locked_objects()); });
  registry->AddGauge("lock_waiters",
                     [this] { return static_cast<double>(locks_.waiting_txns()); });
  // Wait-die cannot deadlock, so it never searches.
  if (rule_ == Rule::kWaitDie) return;
  deadlock_searches_ = registry->AddCounter("deadlock_searches");
  if (rule_ == Rule::kBlock) {
    // Cycles of length 2 dominate (the upgrade deadlock); long cycles appear
    // under high contention. Bins cover [2, 34).
    cycle_length_hist_ =
        registry->AddHistogram("deadlock_cycle_len", 2.0, 34.0, 32);
  }
}

}  // namespace ccsim
