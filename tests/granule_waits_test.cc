// Unit tests of the two tables the timestamp and optimistic algorithms
// share: GranuleWaits (transactions parked on a granule) and FlushClaims
// (the validated writer flushing each granule), including a planted
// violation of every rule their audits share.
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "cc/flush_claims.h"
#include "cc/granule_waits.h"
#include "util/check.h"
#include "util/dense_table.h"

namespace ccsim {

/// Reaches past GranuleWaits' API to corrupt a record, which the API itself
/// can never do: the audit must catch it.
struct GranuleWaitsTestPeer {
  static void RecordWait(GranuleWaits& waits, TxnId txn, ObjectId obj) {
    waits.parked_.At(txn) = obj;
  }
};

namespace {

/// True if `detail` contains `part`.
bool Mentions(const std::string& detail, const std::string& part) {
  return detail.find(part) != std::string::npos;
}

std::vector<TxnId> TakeAll(GranuleWaits& waits, ObjectId obj) {
  return waits.TakeAll(obj);
}

/// A transaction table holding `live`: what the audit takes as live.
TxnSlotMap<int> Live(std::initializer_list<TxnId> live) {
  TxnSlotMap<int> active;
  for (TxnId txn : live) active.Insert(txn);
  return active;
}

TEST(GranuleWaitsTest, WakesInArrivalOrder) {
  GranuleWaits waits;
  waits.Reserve(16, 8);
  waits.Park(12, 3);
  waits.Park(10, 3);
  waits.Park(11, 3);
  waits.Park(20, 4);
  EXPECT_EQ(TakeAll(waits, 3), (std::vector<TxnId>{12, 10, 11}));
  EXPECT_EQ(TakeAll(waits, 4), (std::vector<TxnId>{20}));
}

TEST(GranuleWaitsTest, LeaveFromTheMiddleKeepsTheRestInOrder) {
  GranuleWaits waits;
  for (TxnId txn : {1, 2, 3, 4}) waits.Park(txn, 7);
  waits.Leave(3);
  waits.Leave(99);  // Not parked: a no-op.
  EXPECT_FALSE(waits.IsParked(3));
  EXPECT_FALSE(waits.Tracks(3));
  EXPECT_TRUE(waits.Tracks(4));
  EXPECT_EQ(TakeAll(waits, 7), (std::vector<TxnId>{1, 2, 4}));
}

TEST(GranuleWaitsTest, TakeAllClearsRecords) {
  GranuleWaits waits;
  waits.Park(1, 5);
  waits.Park(2, 5);
  ASSERT_TRUE(waits.Tracks(1));
  EXPECT_EQ(TakeAll(waits, 5).size(), 2u);
  for (TxnId txn : {1, 2}) {
    EXPECT_FALSE(waits.IsParked(txn));
    EXPECT_FALSE(waits.Tracks(txn));
  }
  EXPECT_TRUE(TakeAll(waits, 5).empty());
  EXPECT_TRUE(TakeAll(waits, 6).empty());  // Never had a waiter.
  // A woken transaction may park again, anywhere.
  waits.Park(1, 6);
  EXPECT_TRUE(waits.Tracks(1));
  waits.Leave(1);  // Leaving after a TakeAll elsewhere is still exact.
  EXPECT_TRUE(TakeAll(waits, 6).empty());
}

TEST(GranuleWaitsTest, ParkingTwiceIsAnError) {
  GranuleWaits waits;
  waits.Park(1, 5);
  ScopedCheckTrap trap;
  EXPECT_THROW(waits.Park(1, 6), CheckFailure);
}

TEST(GranuleWaitsTest, VisitsWaitersGranuleByGranule) {
  GranuleWaits waits;
  waits.Park(1, 9);
  waits.Park(2, 4);
  waits.Park(3, 9);
  std::vector<std::pair<ObjectId, TxnId>> seen;
  waits.ForEachWaiter(
      [&](ObjectId obj, TxnId txn) { seen.emplace_back(obj, txn); });
  EXPECT_EQ(seen, (std::vector<std::pair<ObjectId, TxnId>>{
                      {9, 1}, {9, 3}, {4, 2}}));
}

TEST(GranuleWaitsAuditTest, ConsistentWaitsAreClean) {
  GranuleWaits waits;
  waits.Park(1, 9);
  waits.Park(2, 9);
  waits.Park(3, 4);
  waits.Leave(2);
  Auditor auditor;
  waits.AuditCheck(&auditor, Live({1, 3}));
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
}

TEST(GranuleWaitsAuditTest, InactiveWaiterIsReported) {
  GranuleWaits waits;
  waits.Park(1, 9);
  waits.Park(2, 9);
  Auditor auditor;
  waits.AuditCheck(&auditor, Live({1}));
  ASSERT_EQ(auditor.violation_count(), 1) << auditor.Summary();
  const AuditViolation& violation = auditor.violations()[0];
  EXPECT_EQ(violation.invariant, AuditInvariant::kWaitsForConsistency);
  EXPECT_EQ(violation.txn, 2);
  EXPECT_TRUE(Mentions(violation.detail, "inactive txn"))
      << violation.detail;
}

TEST(GranuleWaitsAuditTest, RecordNamingAnotherGranuleIsReported) {
  GranuleWaits waits;
  waits.Park(1, 9);
  waits.Park(2, 9);
  GranuleWaitsTestPeer::RecordWait(waits, 2, 4);
  Auditor auditor;
  waits.AuditCheck(&auditor, Live({1, 2}));
  // Both directions see it: the waiter listed on 9 records 4, and the
  // record naming 4 is not listed there.
  ASSERT_EQ(auditor.violation_count(), 2) << auditor.Summary();
  for (const AuditViolation& violation : auditor.violations()) {
    EXPECT_EQ(violation.invariant, AuditInvariant::kWaitsForConsistency);
    EXPECT_EQ(violation.txn, 2);
  }
  EXPECT_TRUE(Mentions(auditor.violations()[0].detail,
                       "does not record its wait on object 9"))
      << auditor.violations()[0].detail;
  EXPECT_TRUE(Mentions(auditor.violations()[1].detail,
                       "not listed on object 4"))
      << auditor.violations()[1].detail;
  EXPECT_FALSE(waits.Tracks(2));
}

// --- FlushClaims -----------------------------------------------------------

/// The two fields FlushClaims' audit reads from an algorithm's state.
struct WriterState {
  bool validated = false;
  std::vector<ObjectId> writes;
};

TEST(FlushClaimsTest, ClaimNamesTheHolderUntilReleased) {
  FlushClaims claims;
  claims.Reserve(16);
  EXPECT_EQ(claims.Holder(3), kInvalidTxn);
  claims.Claim(7, {3, 5});
  EXPECT_EQ(claims.Holder(3), 7);
  EXPECT_EQ(claims.Holder(5), 7);
  EXPECT_EQ(claims.Holder(4), kInvalidTxn);
  claims.Release(7, {3, 5});
  EXPECT_EQ(claims.Holder(3), kInvalidTxn);
  claims.Claim(8, {3});  // Released granules can be claimed again.
  EXPECT_EQ(claims.Holder(3), 8);
}

TEST(FlushClaimsTest, SecondClaimAndForeignReleaseAreErrors) {
  FlushClaims claims;
  claims.Claim(7, {3});
  ScopedCheckTrap trap;
  EXPECT_THROW(claims.Claim(8, {3}), CheckFailure);
  EXPECT_THROW(claims.Release(8, {3}), CheckFailure);
  EXPECT_THROW(claims.Release(7, {4}), CheckFailure);
}

TEST(FlushClaimsAuditTest, ValidatedWriteSetsMatchingClaimsAreClean) {
  FlushClaims claims;
  TxnSlotMap<WriterState> active;
  active.Insert(1) = WriterState{true, {3, 5}};
  active.Insert(2) = WriterState{false, {3}};  // Not validated: no claim.
  claims.Claim(1, {3, 5});
  claims.Claim(9, {6});
  claims.Release(9, {6});  // A released claim reads as absent.
  Auditor auditor;
  claims.AuditCheck(&auditor, active);
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
}

TEST(FlushClaimsAuditTest, ClaimByUnvalidatedTxnIsReported) {
  FlushClaims claims;
  TxnSlotMap<WriterState> active;
  active.Insert(1) = WriterState{false, {3}};
  claims.Claim(1, {3});
  claims.Claim(2, {4});  // Not even live.
  Auditor auditor;
  claims.AuditCheck(&auditor, active);
  ASSERT_EQ(auditor.violation_count(), 2) << auditor.Summary();
  EXPECT_EQ(auditor.violations()[0].txn, 1);
  EXPECT_EQ(auditor.violations()[1].txn, 2);
  for (const AuditViolation& violation : auditor.violations()) {
    EXPECT_EQ(violation.invariant, AuditInvariant::kWaitsForConsistency);
    EXPECT_TRUE(Mentions(violation.detail, "has not validated"))
        << violation.detail;
  }
}

TEST(FlushClaimsAuditTest, ClaimOutsideTheWriteSetIsReported) {
  FlushClaims claims;
  TxnSlotMap<WriterState> active;
  active.Insert(1) = WriterState{true, {3}};
  claims.Claim(1, {3, 4});
  Auditor auditor;
  claims.AuditCheck(&auditor, active);
  ASSERT_EQ(auditor.violation_count(), 1) << auditor.Summary();
  EXPECT_EQ(auditor.violations()[0].txn, 1);
  EXPECT_TRUE(Mentions(auditor.violations()[0].detail,
                       "outside its holder's write set: object 4"))
      << auditor.violations()[0].detail;
}

TEST(FlushClaimsAuditTest, ValidatedWriteWithoutClaimIsReported) {
  FlushClaims claims;
  TxnSlotMap<WriterState> active;
  active.Insert(1) = WriterState{true, {3, 5}};
  active.Insert(2) = WriterState{true, {6}};
  claims.Claim(1, {3});
  claims.Claim(2, {5});  // Someone else's granule, and not its own.
  Auditor auditor;
  claims.AuditCheck(&auditor, active);
  // Claim 5 is outside txn 2's write set; 1's write of 5 and 2's write of 6
  // hold no claim of their own.
  ASSERT_EQ(auditor.violation_count(), 3) << auditor.Summary();
  EXPECT_TRUE(Mentions(auditor.violations()[1].detail,
                       "holds no flush claim: object 5"))
      << auditor.violations()[1].detail;
  EXPECT_EQ(auditor.violations()[1].txn, 1);
  EXPECT_TRUE(Mentions(auditor.violations()[2].detail,
                       "holds no flush claim: object 6"))
      << auditor.violations()[2].detail;
  EXPECT_EQ(auditor.violations()[2].txn, 2);
}

}  // namespace
}  // namespace ccsim
