// Unit tests for the lock manager: grant tables, upgrades, queue fairness,
// prefix-grant release processing, cancellation, and blocker reporting.
#include <algorithm>

#include <gtest/gtest.h>

#include "cc/lock_manager.h"

namespace ccsim {
namespace {

constexpr TxnId kT1 = 1, kT2 = 2, kT3 = 3, kT4 = 4;
constexpr ObjectId kA = 100, kB = 200;

using Outcome = LockRequestOutcome;

TEST(LockManagerTest, SharedLocksAreCompatible) {
  LockManager lm;
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kShared, true), Outcome::kGranted);
  EXPECT_EQ(lm.Request(kT2, kA, LockMode::kShared, true), Outcome::kGranted);
  EXPECT_EQ(lm.Request(kT3, kA, LockMode::kShared, true), Outcome::kGranted);
  EXPECT_TRUE(lm.HoldsAtLeast(kT1, kA, LockMode::kShared));
  EXPECT_TRUE(lm.HoldsAtLeast(kT3, kA, LockMode::kShared));
}

TEST(LockManagerTest, ExclusiveConflictsWithShared) {
  LockManager lm;
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kShared, true), Outcome::kGranted);
  EXPECT_EQ(lm.Request(kT2, kA, LockMode::kExclusive, true), Outcome::kWaiting);
  EXPECT_TRUE(lm.IsWaiting(kT2));
  EXPECT_EQ(lm.WaitingOn(kT2).value(), kA);
}

TEST(LockManagerTest, ExclusiveConflictsWithExclusive) {
  LockManager lm;
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kExclusive, true), Outcome::kGranted);
  EXPECT_EQ(lm.Request(kT2, kA, LockMode::kExclusive, true), Outcome::kWaiting);
}

TEST(LockManagerTest, SharedConflictsWithExclusive) {
  LockManager lm;
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kExclusive, true), Outcome::kGranted);
  EXPECT_EQ(lm.Request(kT2, kA, LockMode::kShared, true), Outcome::kWaiting);
}

TEST(LockManagerTest, DenyWithoutEnqueueLeavesNoTrace) {
  LockManager lm;
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kExclusive, true), Outcome::kGranted);
  EXPECT_EQ(lm.Request(kT2, kA, LockMode::kShared, false), Outcome::kDenied);
  EXPECT_FALSE(lm.IsWaiting(kT2));
  EXPECT_EQ(lm.stats().denials, 1);
  // Release by T1 grants nothing (no queue was formed).
  EXPECT_TRUE(lm.ReleaseAll(kT1).empty());
}

TEST(LockManagerTest, IdempotentReRequest) {
  LockManager lm;
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kShared, true), Outcome::kGranted);
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kShared, true), Outcome::kGranted);
  EXPECT_EQ(lm.NumHeld(kT1), 1u);
  // Holding X satisfies a later S request.
  EXPECT_EQ(lm.Request(kT2, kB, LockMode::kExclusive, true), Outcome::kGranted);
  EXPECT_EQ(lm.Request(kT2, kB, LockMode::kShared, true), Outcome::kGranted);
}

TEST(LockManagerTest, UpgradeSoleHolderGranted) {
  LockManager lm;
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kShared, true), Outcome::kGranted);
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kExclusive, true), Outcome::kGranted);
  EXPECT_TRUE(lm.HoldsAtLeast(kT1, kA, LockMode::kExclusive));
  EXPECT_EQ(lm.stats().upgrades_requested, 1);
}

TEST(LockManagerTest, UpgradeWithOtherReaderWaits) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT2, kA, LockMode::kShared, true);
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kExclusive, true), Outcome::kWaiting);
  EXPECT_TRUE(lm.IsWaiting(kT1));
  // T1 still holds its shared lock while waiting to upgrade.
  EXPECT_TRUE(lm.HoldsAtLeast(kT1, kA, LockMode::kShared));
  EXPECT_FALSE(lm.HoldsAtLeast(kT1, kA, LockMode::kExclusive));

  // When T2 releases, the upgrade is granted.
  auto granted = lm.ReleaseAll(kT2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], kT1);
  EXPECT_TRUE(lm.HoldsAtLeast(kT1, kA, LockMode::kExclusive));
  EXPECT_FALSE(lm.IsWaiting(kT1));
}

TEST(LockManagerTest, UpgradeDeniedWithoutEnqueue) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT2, kA, LockMode::kShared, true);
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kExclusive, false), Outcome::kDenied);
  EXPECT_FALSE(lm.IsWaiting(kT1));
  EXPECT_TRUE(lm.HoldsAtLeast(kT1, kA, LockMode::kShared));  // S kept.
}

TEST(LockManagerTest, UpgraderJumpsAheadOfOrdinaryWaiters) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT2, kA, LockMode::kShared, true);
  // T3 waits for X behind the readers.
  EXPECT_EQ(lm.Request(kT3, kA, LockMode::kExclusive, true), Outcome::kWaiting);
  // T1 requests an upgrade: it must be served before T3.
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kExclusive, true), Outcome::kWaiting);

  auto granted = lm.ReleaseAll(kT2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], kT1);  // Upgrade first, not T3.
  EXPECT_TRUE(lm.HoldsAtLeast(kT1, kA, LockMode::kExclusive));
  EXPECT_TRUE(lm.IsWaiting(kT3));

  granted = lm.ReleaseAll(kT1);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], kT3);
}

TEST(LockManagerTest, NoQueueJumpingForNewSharedRequests) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT2, kA, LockMode::kExclusive, true);  // Waits.
  // A new shared request is compatible with the holder but must not jump
  // over the waiting writer (starvation prevention).
  EXPECT_EQ(lm.Request(kT3, kA, LockMode::kShared, true), Outcome::kWaiting);
}

TEST(LockManagerTest, PrefixGrantStopsAtIncompatible) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kExclusive, true);
  lm.Request(kT2, kA, LockMode::kShared, true);     // Waits.
  lm.Request(kT3, kA, LockMode::kShared, true);     // Waits.
  lm.Request(kT4, kA, LockMode::kExclusive, true);  // Waits.

  auto granted = lm.ReleaseAll(kT1);
  // Both shared waiters are granted together; the writer stays queued.
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_TRUE(std::count(granted.begin(), granted.end(), kT2) == 1);
  EXPECT_TRUE(std::count(granted.begin(), granted.end(), kT3) == 1);
  EXPECT_TRUE(lm.IsWaiting(kT4));

  lm.ReleaseAll(kT2);
  EXPECT_TRUE(lm.IsWaiting(kT4));  // Still one reader left.
  granted = lm.ReleaseAll(kT3);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], kT4);
}

TEST(LockManagerTest, CancellationUnblocksLaterWaiters) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT2, kA, LockMode::kExclusive, true);  // Waits at head.
  lm.Request(kT3, kA, LockMode::kShared, true);     // Waits behind T2.

  // T2 goes away (e.g. deadlock victim): T3 becomes grantable.
  auto granted = lm.ReleaseAll(kT2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], kT3);
  EXPECT_TRUE(lm.HoldsAtLeast(kT3, kA, LockMode::kShared));
}

TEST(LockManagerTest, ReleaseAllCoversMultipleObjects) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kExclusive, true);
  lm.Request(kT1, kB, LockMode::kExclusive, true);
  lm.Request(kT2, kA, LockMode::kShared, true);  // Waits.
  lm.Request(kT3, kB, LockMode::kShared, true);  // Waits.
  EXPECT_EQ(lm.NumHeld(kT1), 2u);

  auto granted = lm.ReleaseAll(kT1);
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_EQ(lm.NumHeld(kT1), 0u);
  EXPECT_TRUE(lm.HoldsAtLeast(kT2, kA, LockMode::kShared));
  EXPECT_TRUE(lm.HoldsAtLeast(kT3, kB, LockMode::kShared));
}

TEST(LockManagerTest, ReleaseAllProcessesUpgradeObjectOnce) {
  // A transaction with a pending *upgrade* references one object twice: as
  // the wait it cancels and as the held lock it releases. ReleaseAll must
  // process that object's queue exactly once, so each beneficiary appears
  // exactly once in the returned grant list.
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT3, kA, LockMode::kShared, true);  // Second holder.
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kExclusive, true),
            LockRequestOutcome::kWaiting);  // Upgrade; kT3 blocks it.
  EXPECT_EQ(lm.Request(kT2, kA, LockMode::kShared, true),
            LockRequestOutcome::kWaiting);  // Queued behind the upgrade.
  EXPECT_TRUE(lm.IsWaiting(kT1));

  auto granted = lm.ReleaseAll(kT1);
  EXPECT_EQ(granted, (std::vector<TxnId>{kT2}));  // Once, not twice.
  EXPECT_TRUE(lm.HoldsAtLeast(kT2, kA, LockMode::kShared));
  EXPECT_TRUE(lm.HoldsAtLeast(kT3, kA, LockMode::kShared));
  EXPECT_FALSE(lm.IsWaiting(kT1));
  EXPECT_EQ(lm.NumHeld(kT1), 0u);
}

TEST(LockManagerTest, ReleaseAllOfUnknownTxnIsNoop) {
  LockManager lm;
  EXPECT_TRUE(lm.ReleaseAll(kT1).empty());
}

TEST(LockManagerTest, TableShrinksWhenUnused) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kExclusive, true);
  EXPECT_EQ(lm.locked_objects(), 1u);
  lm.ReleaseAll(kT1);
  EXPECT_EQ(lm.locked_objects(), 0u);
}

TEST(LockManagerTest, BlockersOfReportsConflictingHolders) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT2, kA, LockMode::kShared, true);
  lm.Request(kT3, kA, LockMode::kExclusive, true);  // Waits on both readers.
  auto blockers = lm.BlockersOf(kT3);
  ASSERT_EQ(blockers.size(), 2u);
  EXPECT_EQ(blockers[0], kT1);
  EXPECT_EQ(blockers[1], kT2);
}

TEST(LockManagerTest, BlockersOfSharedWaiterExcludesCompatibleHolders) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT2, kA, LockMode::kExclusive, true);  // Waits on T1.
  lm.Request(kT3, kA, LockMode::kShared, true);     // Waits behind T2.
  // T3 conflicts with no holder (T1 is shared); it is blocked only by the
  // earlier waiter T2.
  auto blockers = lm.BlockersOf(kT3);
  ASSERT_EQ(blockers.size(), 1u);
  EXPECT_EQ(blockers[0], kT2);
}

TEST(LockManagerTest, BlockersOfUpgraderIsOtherHolder) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT2, kA, LockMode::kShared, true);
  lm.Request(kT1, kA, LockMode::kExclusive, true);  // Upgrade waits on T2.
  auto blockers = lm.BlockersOf(kT1);
  ASSERT_EQ(blockers.size(), 1u);
  EXPECT_EQ(blockers[0], kT2);
}

TEST(LockManagerTest, BlockersOfNonWaiterIsEmpty) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  EXPECT_TRUE(lm.BlockersOf(kT1).empty());
  EXPECT_TRUE(lm.BlockersOf(kT2).empty());
}

TEST(LockManagerTest, TwoUpgradersQueueFifo) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT2, kA, LockMode::kShared, true);
  EXPECT_EQ(lm.Request(kT1, kA, LockMode::kExclusive, true), Outcome::kWaiting);
  EXPECT_EQ(lm.Request(kT2, kA, LockMode::kExclusive, true), Outcome::kWaiting);
  // Classic upgrade deadlock shape: each blocks on the other as holder.
  auto b1 = lm.BlockersOf(kT1);
  ASSERT_EQ(b1.size(), 1u);
  EXPECT_EQ(b1[0], kT2);
  auto b2 = lm.BlockersOf(kT2);
  // T2 is blocked by T1 both as holder and as the earlier upgrade waiter;
  // the report de-duplicates.
  ASSERT_EQ(b2.size(), 1u);
  EXPECT_EQ(b2[0], kT1);

  // Victimize T2: T1's upgrade proceeds.
  auto granted = lm.ReleaseAll(kT2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], kT1);
  EXPECT_TRUE(lm.HoldsAtLeast(kT1, kA, LockMode::kExclusive));
}

// BlocksAnyWaiter(T, ex) answers "does some waiter outside `ex` list T among
// its blockers": the waits-for in-edge test that ends most deadlock searches.

TEST(LockManagerTest, BlocksAnyWaiterSharedHolderWithSharedWaitersBlocksNoOne) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT2, kA, LockMode::kExclusive, true);  // Waits on T1.
  lm.Request(kT3, kA, LockMode::kShared, true);     // Waits behind T2.
  lm.Request(kT4, kB, LockMode::kShared, true);
  // T4's granule has no waiters. On A, the X waiter T2 conflicts with T1's S
  // lock; the S waiter T3 does not (it waits on T2 alone), so once T2 is
  // excluded T1 blocks no one.
  EXPECT_FALSE(lm.BlocksAnyWaiter(kT4, {}));
  EXPECT_TRUE(lm.BlocksAnyWaiter(kT1, {}));
  EXPECT_FALSE(lm.BlocksAnyWaiter(kT1, {kT2}));
}

TEST(LockManagerTest, BlocksAnyWaiterExclusiveHolderBlocksEveryWaiter) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kExclusive, true);
  lm.Request(kT2, kA, LockMode::kShared, true);
  lm.Request(kT3, kA, LockMode::kShared, true);
  for (TxnId waiter : {kT2, kT3}) {
    const auto blockers = lm.BlockersOf(waiter);
    EXPECT_NE(std::find(blockers.begin(), blockers.end(), kT1), blockers.end());
  }
  EXPECT_TRUE(lm.BlocksAnyWaiter(kT1, {}));
  EXPECT_TRUE(lm.BlocksAnyWaiter(kT1, {kT2}));
  EXPECT_TRUE(lm.BlocksAnyWaiter(kT1, {kT3}));
}

TEST(LockManagerTest, BlocksAnyWaiterSharedCoHolderBlocksUpgrader) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT2, kA, LockMode::kShared, true);
  lm.Request(kT1, kA, LockMode::kExclusive, true);  // Upgrade waits on T2.
  EXPECT_TRUE(lm.BlocksAnyWaiter(kT2, {}));
  // The upgrader is the only waiter, and nobody waits on it.
  EXPECT_FALSE(lm.BlocksAnyWaiter(kT1, {}));
}

TEST(LockManagerTest, BlocksAnyWaiterUpgraderAheadBlocksOrdinaryWaiters) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);
  lm.Request(kT2, kA, LockMode::kShared, true);
  lm.Request(kT3, kA, LockMode::kShared, true);
  lm.Request(kT4, kA, LockMode::kExclusive, true);  // Waits on T1–T3.
  lm.Request(kT1, kA, LockMode::kExclusive, true);  // Upgrade jumps ahead of T4.
  // T4 waits behind the upgrader T1 (queue edge) and conflicts with its S
  // lock (holder edge); excluding T4 leaves no waiter behind T1.
  EXPECT_TRUE(lm.BlocksAnyWaiter(kT1, {}));
  EXPECT_FALSE(lm.BlocksAnyWaiter(kT1, {kT4}));
}

TEST(LockManagerTest, BlocksAnyWaiterTailWaiterBlocksNobodyInItsQueue) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kExclusive, true);
  lm.Request(kT2, kA, LockMode::kExclusive, true);
  lm.Request(kT3, kA, LockMode::kShared, true);
  EXPECT_TRUE(lm.BlocksAnyWaiter(kT2, {}));  // T3 is behind it.
  EXPECT_FALSE(lm.BlocksAnyWaiter(kT3, {}));
}

TEST(LockManagerTest, BlocksAnyWaiterIgnoresExcludedWaiters) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kExclusive, true);
  lm.Request(kT2, kA, LockMode::kShared, true);
  lm.Request(kT1, kB, LockMode::kShared, true);
  lm.Request(kT3, kB, LockMode::kExclusive, true);
  EXPECT_TRUE(lm.BlocksAnyWaiter(kT1, {kT2}));
  EXPECT_TRUE(lm.BlocksAnyWaiter(kT1, {kT3}));
  EXPECT_FALSE(lm.BlocksAnyWaiter(kT1, {kT2, kT3}));
  EXPECT_FALSE(lm.BlocksAnyWaiter(kT4, {}));  // Unknown transaction.
}

TEST(LockManagerTest, StatsCountersTrack) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kShared, true);      // immediate grant
  lm.Request(kT2, kA, LockMode::kExclusive, true);   // wait
  lm.Request(kT3, kA, LockMode::kExclusive, false);  // denial
  EXPECT_EQ(lm.stats().requests, 3);
  EXPECT_EQ(lm.stats().immediate_grants, 1);
  EXPECT_EQ(lm.stats().waits, 1);
  EXPECT_EQ(lm.stats().denials, 1);
  lm.ReleaseAll(kT1);
  EXPECT_EQ(lm.stats().deferred_grants, 1);
}

TEST(LockManagerDeathTest, RequestWhileWaitingAborts) {
  LockManager lm;
  lm.Request(kT1, kA, LockMode::kExclusive, true);
  lm.Request(kT2, kA, LockMode::kShared, true);  // T2 waits.
  EXPECT_DEATH(lm.Request(kT2, kB, LockMode::kShared, true), "while waiting");
}

}  // namespace
}  // namespace ccsim
