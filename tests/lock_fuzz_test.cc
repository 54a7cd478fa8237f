// Randomized stress tests ("fuzz") for the lock manager and the static
// locking table: long random sequences of requests and releases, with
// invariants checked after every step. Deterministic seeds keep failures
// reproducible.
#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "cc/deadlock.h"
#include "cc/lock_manager.h"
#include "util/random.h"

namespace ccsim {
namespace {

/// Random op mix over a small object space; verifies after each op:
///  * a waiting transaction always has at least one blocker (else the
///    prefix-grant rule should have granted it),
///  * grants returned by ReleaseAll were actually waiting beforehand,
///  * a granted waiter holds the lock it asked for,
///  * no transaction both waits and is absent from the blocker relation.
class LockFuzzer {
 public:
  explicit LockFuzzer(uint64_t seed) : rng_(seed) {}

  void Run(int steps, int num_txns, int num_objects) {
    for (int step = 0; step < steps; ++step) {
      TxnId txn = rng_.UniformInt(1, num_txns);
      if (waiting_.count(txn) > 0 || rng_.Bernoulli(0.25)) {
        // Waiting transactions can only release (deadlock victim style);
        // active ones release with probability 1/4.
        DoRelease(txn);
      } else {
        DoRequest(txn, rng_.UniformInt(1, num_objects),
                  rng_.Bernoulli(0.3) ? LockMode::kExclusive
                                      : LockMode::kShared);
      }
      CheckInvariants(num_txns);
    }
    // Drain: release everything; nobody may remain waiting.
    for (TxnId txn = 1; txn <= num_txns; ++txn) DoRelease(txn);
    EXPECT_EQ(lm_.waiting_txns(), 0u);
    EXPECT_EQ(lm_.locked_objects(), 0u);
  }

 private:
  void DoRequest(TxnId txn, ObjectId obj, LockMode mode) {
    // Skip requests that would be no-ops or invalid per the API contract.
    if (lm_.IsWaiting(txn)) return;
    LockRequestOutcome outcome = lm_.Request(txn, obj, mode, true);
    if (outcome == LockRequestOutcome::kWaiting) {
      waiting_.insert(txn);
      wanted_[txn] = {obj, mode};
    }
  }

  void DoRelease(TxnId txn) {
    std::vector<TxnId> granted = lm_.ReleaseAll(txn);
    waiting_.erase(txn);
    wanted_.erase(txn);
    for (TxnId g : granted) {
      // Only transactions recorded as waiting may be granted, and the grant
      // must deliver the requested lock.
      ASSERT_EQ(waiting_.count(g), 1u) << "grant to non-waiter " << g;
      auto [obj, mode] = wanted_.at(g);
      EXPECT_TRUE(lm_.HoldsAtLeast(g, obj, mode));
      EXPECT_FALSE(lm_.IsWaiting(g));
      waiting_.erase(g);
      wanted_.erase(g);
    }
  }

  void CheckInvariants(int num_txns) {
    ASSERT_EQ(lm_.waiting_txns(), waiting_.size());
    for (TxnId txn : waiting_) {
      ASSERT_TRUE(lm_.IsWaiting(txn));
      // A waiter with no blockers should have been granted.
      EXPECT_FALSE(lm_.BlockersOf(txn).empty()) << "stuck waiter " << txn;
    }
    for (TxnId txn = 1; txn <= num_txns; ++txn) {
      if (waiting_.count(txn) == 0) {
        EXPECT_FALSE(lm_.IsWaiting(txn));
      }
    }
  }

  Rng rng_;
  LockManager lm_;
  std::unordered_set<TxnId> waiting_;
  std::unordered_map<TxnId, std::pair<ObjectId, LockMode>> wanted_;
};

TEST(LockFuzzTest, SmallHotSpace) {
  LockFuzzer(1).Run(/*steps=*/4000, /*num_txns=*/6, /*num_objects=*/3);
}

TEST(LockFuzzTest, MediumSpace) {
  LockFuzzer(2).Run(4000, 20, 10);
}

TEST(LockFuzzTest, ManyTransactionsFewObjects) {
  LockFuzzer(3).Run(4000, 40, 2);
}

TEST(LockFuzzTest, MultipleSeeds) {
  for (uint64_t seed = 10; seed < 18; ++seed) {
    LockFuzzer(seed).Run(1500, 12, 5);
  }
}

/// Deadlock-detector fuzz: build random wait graphs via the lock manager,
/// resolve from each newly blocked requester, and assert the resolution
/// leaves no cycle through the requester.
TEST(DeadlockFuzzTest, ResolutionAlwaysClearsRequesterCycles) {
  Rng rng(99);
  for (int round = 0; round < 60; ++round) {
    LockManager lm;
    DeadlockDetector detector(&lm, VictimPolicy::kYoungest);
    std::unordered_map<TxnId, SimTime> starts;
    VictimContext context{
        [&starts](TxnId t) { return starts[t]; },
        [&lm](TxnId t) { return lm.NumHeld(t); },
    };
    const int txns = 8, objects = 5;
    for (TxnId t = 1; t <= txns; ++t) starts[t] = t;

    SmallIdSet doomed;
    for (int step = 0; step < 80; ++step) {
      TxnId txn = rng.UniformInt(1, txns);
      if (lm.IsWaiting(txn) || doomed.count(txn) > 0) continue;
      ObjectId obj = rng.UniformInt(1, objects);
      LockMode mode = rng.Bernoulli(0.4) ? LockMode::kExclusive
                                         : LockMode::kShared;
      if (lm.Request(txn, obj, mode, true) == LockRequestOutcome::kWaiting) {
        DeadlockResolution resolution = detector.Resolve(txn, doomed, context);
        if (resolution.requester_is_victim) {
          lm.ReleaseAll(txn);
          continue;
        }
        for (TxnId victim : resolution.victims) doomed.insert(victim);
        // After dooming the victims, no cycle through the requester remains.
        EXPECT_TRUE(detector.FindCycle(txn, doomed).empty());
      }
      // Occasionally execute pending dooms (engine behavior).
      if (rng.Bernoulli(0.3)) {
        for (TxnId victim : doomed) lm.ReleaseAll(victim);
        doomed.clear();
      }
    }
  }
}

/// The unpruned deadlock search: a DFS from `start` over BlockersOf
/// (ascending, minus `excluded`) that returns the path the first time an
/// edge leads back to `start`. The reference the pruned search must
/// reproduce member for member.
std::vector<TxnId> ReferenceFindCycle(const LockManager& lm, TxnId start,
                                      const SmallIdSet& excluded) {
  std::vector<TxnId> path;
  SmallIdSet visited{start};
  auto visit = [&](auto&& self, TxnId txn) -> bool {
    path.push_back(txn);
    for (TxnId next : lm.BlockersOf(txn)) {
      if (excluded.count(next) > 0) continue;
      if (next == start) return true;
      if (visited.insert(next) && self(self, next)) return true;
    }
    path.pop_back();
    return false;
  };
  if (!visit(visit, start)) path.clear();
  return path;
}

/// Victim choice of the three policies, written out independently.
TxnId ReferenceVictim(const std::vector<TxnId>& cycle, VictimPolicy policy,
                      const std::map<TxnId, SimTime>& starts,
                      const LockManager& lm) {
  TxnId victim = cycle.front();
  for (TxnId c : cycle) {
    const SimTime vs = starts.at(victim), cs = starts.at(c);
    const size_t vl = lm.NumHeld(victim), cl = lm.NumHeld(c);
    const bool better =
        policy == VictimPolicy::kYoungest ? cs > vs || (cs == vs && c > victim)
        : policy == VictimPolicy::kOldest ? cs < vs || (cs == vs && c < victim)
                                          : cl < vl || (cl == vl && c > victim);
    if (better) victim = c;
  }
  return victim;
}

DeadlockResolution ReferenceResolve(const LockManager& lm, TxnId requester,
                                    const SmallIdSet& doomed,
                                    VictimPolicy policy,
                                    const std::map<TxnId, SimTime>& starts) {
  DeadlockResolution resolution;
  SmallIdSet excluded = doomed;
  while (true) {
    const std::vector<TxnId> cycle =
        ReferenceFindCycle(lm, requester, excluded);
    if (cycle.empty()) break;
    ++resolution.cycles_found;
    resolution.cycle_lengths.push_back(static_cast<int>(cycle.size()));
    const TxnId victim = ReferenceVictim(cycle, policy, starts, lm);
    if (victim == requester) {
      resolution.requester_is_victim = true;
      break;
    }
    resolution.victims.push_back(victim);
    excluded.insert(victim);
  }
  return resolution;
}

/// Differential fuzz of the pruned deadlock search: random lock tables (S/X
/// mixes, upgrades on a small object space, waiters released at random so
/// cycles both form and persist) and random doomed sets. After each step:
///  * BlocksAnyWaiter(T, ex) equals "some waiter W outside ex has T in
///    BlockersOf(W)", for every T;
///  * FindCycle from every T, and Resolve from the requester, equal the
///    unpruned reference (cycle members in order, victims, cycle lengths,
///    requester_is_victim).
TEST(DeadlockFuzzTest, PrunedSearchMatchesUnprunedReference) {
  constexpr VictimPolicy kPolicies[] = {
      VictimPolicy::kYoungest, VictimPolicy::kOldest,
      VictimPolicy::kFewestLocks};
  Rng rng(2024);
  int64_t skipped = 0, searched = 0, cycles = 0, resolutions = 0,
          upgrades = 0;
  for (int round = 0; round < 120; ++round) {
    LockManager lm;
    const VictimPolicy policy = kPolicies[round % 3];
    DeadlockDetector detector(&lm, policy);
    const int txns = static_cast<int>(rng.UniformInt(3, 10));
    const int objects = static_cast<int>(rng.UniformInt(2, 6));
    std::map<TxnId, SimTime> starts;
    for (TxnId t = 1; t <= txns; ++t) starts[t] = rng.UniformInt(0, 4);
    const VictimContext context{
        [&starts](TxnId t) { return starts.at(t); },
        [&lm](TxnId t) { return lm.NumHeld(t); },
    };
    const double x_share = 0.1 + 0.6 * rng.NextDouble();

    for (int step = 0; step < 150; ++step) {
      const TxnId txn = rng.UniformInt(1, txns);
      if (lm.IsWaiting(txn) ? rng.Bernoulli(0.3) : rng.Bernoulli(0.15)) {
        lm.ReleaseAll(txn);
        continue;
      }
      if (lm.IsWaiting(txn)) continue;
      const LockMode mode = rng.Bernoulli(x_share) ? LockMode::kExclusive
                                                   : LockMode::kShared;
      const bool waits = lm.Request(txn, rng.UniformInt(1, objects), mode,
                                    true) == LockRequestOutcome::kWaiting;

      SmallIdSet doomed;
      for (TxnId t = 1; t <= txns; ++t) {
        if (rng.Bernoulli(0.15)) doomed.insert(t);
      }
      for (TxnId t = 1; t <= txns; ++t) {
        bool expected_edge = false;
        for (TxnId w = 1; w <= txns; ++w) {
          if (doomed.count(w) > 0) continue;
          const std::vector<TxnId> blockers = lm.BlockersOf(w);
          if (std::find(blockers.begin(), blockers.end(), t) !=
              blockers.end()) {
            expected_edge = true;
          }
        }
        ASSERT_EQ(lm.BlocksAnyWaiter(t, doomed), expected_edge)
            << "round " << round << " step " << step << " txn " << t;
        const std::vector<TxnId> expected =
            ReferenceFindCycle(lm, t, doomed);
        ASSERT_EQ(detector.FindCycle(t, doomed), expected)
            << "round " << round << " step " << step << " txn " << t;
        if (lm.IsWaiting(t) && doomed.count(t) == 0) {
          ++(expected_edge ? searched : skipped);
        }
        if (!expected.empty()) ++cycles;
      }
      if (!waits) continue;
      const DeadlockResolution expected =
          ReferenceResolve(lm, txn, doomed, policy, starts);
      const DeadlockResolution actual = detector.Resolve(txn, doomed, context);
      EXPECT_EQ(actual.requester_is_victim, expected.requester_is_victim);
      EXPECT_EQ(actual.victims, expected.victims);
      EXPECT_EQ(actual.cycles_found, expected.cycles_found);
      EXPECT_EQ(actual.cycle_lengths, expected.cycle_lengths)
          << "round " << round << " step " << step;
      if (expected.cycles_found > 0) ++resolutions;
    }
    upgrades += lm.stats().upgrades_requested;
  }
  // The sweep must exercise upgrades, both sides of the in-edge check, and
  // cycles.
  EXPECT_GT(upgrades, 100);
  EXPECT_GT(skipped, 100);
  EXPECT_GT(searched, 100);
  EXPECT_GT(cycles, 100);
  EXPECT_GT(resolutions, 20);
}

}  // namespace
}  // namespace ccsim
