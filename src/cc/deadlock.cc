#include "cc/deadlock.h"

#include "sim/choice.h"
#include "util/check.h"

namespace ccsim {

namespace {
// Ceiling on the cycle members offered to a verifier ChoicePoint; matches the
// tiny configurations the explorer runs (docs/VERIFICATION.md).
constexpr int kMaxVictimAlternatives = 6;
}  // namespace

void DeadlockDetector::Reserve(size_t num_txns) {
  // A path visits each transaction at most once, and a blocker list names
  // each at most once. The lists stacked along one path can sum past
  // num_txns (waiters of one object reappear on each other's lists); the
  // stack grows amortized beyond it.
  frames_.reserve(num_txns + 1);
  blocker_stack_.reserve(num_txns);
  blockers_scratch_.reserve(num_txns);
  visited_.reserve(num_txns);
  excluded_scratch_.reserve(num_txns);
  cycle_scratch_.reserve(num_txns);
}

std::vector<TxnId> DeadlockDetector::FindCycle(
    TxnId start, const SmallIdSet& excluded) const {
  std::vector<TxnId> cycle;
  FindCycle(start, excluded, &cycle);
  return cycle;
}

void DeadlockDetector::FindCycle(TxnId start, const SmallIdSet& excluded,
                                 std::vector<TxnId>* cycle) const {
  cycle->clear();
  // A cycle through `start` must end on an edge into it; with none, the
  // walk below could only prove that (header comment).
  if (excluded.count(start) > 0 || !locks_->BlocksAnyWaiter(start, excluded)) {
    return;
  }
  // Iterative DFS over the waits-for relation looking for a path back to
  // `start`. Path state lets us return the cycle members themselves. The
  // path and its blocker lists live in reused scratch, so a search
  // allocates nothing once the scratch is warm.
  size_t depth = 0;
  blocker_stack_.clear();
  auto push = [&](TxnId txn) {
    if (depth == frames_.size()) frames_.emplace_back();
    Frame& frame = frames_[depth++];
    frame.txn = txn;
    frame.next = blocker_stack_.size();
    locks_->AppendBlockersOf(txn, &blockers_scratch_);
    for (TxnId b : blockers_scratch_) {
      if (excluded.count(b) == 0) blocker_stack_.push_back(b);
    }
    frame.end = blocker_stack_.size();
  };

  visited_.clear();
  visited_.insert(start);
  push(start);

  while (depth > 0) {
    Frame& frame = frames_[depth - 1];
    if (frame.next == frame.end) {
      // Drop the exhausted frame and its list, which tops the stack (its
      // children's lists went when they popped).
      --depth;
      blocker_stack_.resize(depth > 0 ? frames_[depth - 1].end : 0);
      continue;
    }
    TxnId next = blocker_stack_[frame.next++];
    if (next == start) {
      // Found a cycle: the current DFS path is the cycle body.
      for (size_t i = 0; i < depth; ++i) cycle->push_back(frames_[i].txn);
      return;
    }
    if (visited_.insert(next)) push(next);
  }
}

TxnId DeadlockDetector::PickVictim(const std::vector<TxnId>& cycle,
                                   const VictimContext& context) const {
  CCSIM_CHECK(!cycle.empty());
  TxnId victim = cycle.front();
  for (TxnId candidate : cycle) {
    switch (policy_) {
      case VictimPolicy::kYoungest: {
        SimTime vs = context.start_time(victim);
        SimTime cs = context.start_time(candidate);
        // Younger = later start; break ties toward the larger id (assigned
        // later, hence younger).
        if (cs > vs || (cs == vs && candidate > victim)) victim = candidate;
        break;
      }
      case VictimPolicy::kOldest: {
        SimTime vs = context.start_time(victim);
        SimTime cs = context.start_time(candidate);
        if (cs < vs || (cs == vs && candidate < victim)) victim = candidate;
        break;
      }
      case VictimPolicy::kFewestLocks: {
        size_t vl = context.locks_held(victim);
        size_t cl = context.locks_held(candidate);
        if (cl < vl || (cl == vl && candidate > victim)) victim = candidate;
        break;
      }
    }
  }
  // Verifier hook: a correct algorithm must stay correct no matter which
  // cycle member is aborted, so offer them all. Index 0 keeps the policy's
  // deterministic pick, which is what fires when no hook is installed.
  if (ActiveChoicePoint() != nullptr && cycle.size() > 1) {
    uint64_t signatures[kMaxVictimAlternatives];
    TxnId members[kMaxVictimAlternatives];
    int count = 0;
    signatures[count] = static_cast<uint64_t>(victim);
    members[count] = victim;
    ++count;
    for (TxnId candidate : cycle) {
      if (count >= kMaxVictimAlternatives) break;
      if (candidate == victim) continue;
      signatures[count] = static_cast<uint64_t>(candidate);
      members[count] = candidate;
      ++count;
    }
    victim = members[MaybeChoose("victim.pick", signatures, count)];
  }
  return victim;
}

DeadlockResolution DeadlockDetector::Resolve(
    TxnId requester, const SmallIdSet& doomed,
    const VictimContext& context) const {
  DeadlockResolution resolution;
  Resolve(requester, doomed, context, &resolution);
  return resolution;
}

void DeadlockDetector::Resolve(TxnId requester, const SmallIdSet& doomed,
                               const VictimContext& context,
                               DeadlockResolution* out) const {
  DeadlockResolution& resolution = *out;
  resolution.requester_is_victim = false;
  resolution.victims.clear();
  resolution.cycles_found = 0;
  resolution.cycle_lengths.clear();
  excluded_scratch_ = doomed;  // Capacity-reusing copy-assign.

  while (true) {
    FindCycle(requester, excluded_scratch_, &cycle_scratch_);
    if (cycle_scratch_.empty()) break;
    ++resolution.cycles_found;
    resolution.cycle_lengths.push_back(
        static_cast<int>(cycle_scratch_.size()));
    TxnId victim = PickVictim(cycle_scratch_, context);
    if (victim == requester) {
      resolution.requester_is_victim = true;
      break;  // Restarting the requester clears every cycle through it.
    }
    resolution.victims.push_back(victim);
    excluded_scratch_.insert(victim);
  }
}

}  // namespace ccsim
