// Tests for the runtime invariant auditor: each violation class must be
// detected when injected, clean histories must pass, and a sweep of every
// algorithm under full auditing must come back violation-free.
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "audit/digest.h"
#include "audit/waits_for.h"
#include "cc/factory.h"
#include "cc/lock_manager.h"
#include "core/closed_system.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "verify/scenario.h"

namespace ccsim {
namespace {

bool HasViolation(const Auditor& auditor, AuditInvariant invariant) {
  for (const AuditViolation& violation : auditor.violations()) {
    if (violation.invariant == invariant) return true;
  }
  return false;
}

// --- Two-phase-locking discipline ---

TEST(AuditorTest, DetectsLockAcquireAfterRelease) {
  Auditor auditor;
  auditor.OnTxnAdmitted(1, /*incarnation=*/1);
  auditor.OnLockAcquired(1, /*obj=*/10, /*exclusive=*/false);
  auditor.OnLockReleased(1);
  auditor.OnLockAcquired(1, /*obj=*/11, /*exclusive=*/true);  // Injected.
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kTwoPhaseLocking))
      << auditor.Summary();
  EXPECT_EQ(auditor.violation_count(), 1);
}

TEST(AuditorTest, AcceptsStrictTwoPhaseHistory) {
  Auditor auditor;
  auditor.OnTxnAdmitted(1, 1);
  auditor.OnLockAcquired(1, 10, false);
  auditor.OnLockAcquired(1, 11, true);
  auditor.OnLockReleased(1);
  auditor.OnTxnFinished(1);
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
  EXPECT_GT(auditor.checks_performed(), 0);
}

TEST(AuditorTest, NewIncarnationMayReacquire) {
  Auditor auditor;
  auditor.OnTxnAdmitted(1, 1);
  auditor.OnLockAcquired(1, 10, true);
  auditor.OnLockReleased(1);
  auditor.OnTxnFinished(1);  // Restarted; same id comes back.
  auditor.OnTxnAdmitted(1, 2);
  auditor.OnLockAcquired(1, 10, true);
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
}

// --- Leaked blocked transaction ---

TEST(AuditorTest, DetectsBlockedTxnNoAlgorithmTracks) {
  Auditor auditor;
  auditor.CheckBlockedTracked(7, /*tracked_by_algorithm=*/false);  // Injected.
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kPermanentBlock))
      << auditor.Summary();
  auditor.CheckBlockedTracked(8, true);
  EXPECT_EQ(auditor.violation_count(), 1);
}

// --- Conservation across the queues ---

TEST(AuditorTest, AcceptsBalancedCensus) {
  Auditor auditor;
  TxnCensus census;
  census.total = 10;
  census.ready = 2;
  census.running = 3;
  census.blocked = 1;
  census.thinking = 2;
  census.restart_delay = 2;
  census.ready_queue = 2;
  census.active = 6;  // running + blocked + thinking.
  auditor.CheckConservation(census);
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
}

TEST(AuditorTest, DetectsQueueCountDrift) {
  Auditor auditor;
  TxnCensus census;
  census.total = 5;
  census.ready = 1;
  census.running = 3;  // 1 + 3 = 4 != 5: one transaction vanished.
  census.ready_queue = 1;
  census.active = 3;
  auditor.CheckConservation(census);
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kTxnConservation))
      << auditor.Summary();
}

TEST(AuditorTest, DetectsActiveCountMismatch) {
  Auditor auditor;
  TxnCensus census;
  census.total = 4;
  census.ready = 1;
  census.running = 2;
  census.blocked = 1;
  census.ready_queue = 1;
  census.active = 2;  // Should be running + blocked = 3.
  auditor.CheckConservation(census);
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kTxnConservation));
}

TEST(AuditorTest, DetectsReadyQueueMismatch) {
  Auditor auditor;
  TxnCensus census;
  census.total = 2;
  census.ready = 2;
  census.ready_queue = 1;  // One ready transaction is not enqueued.
  census.active = 0;
  auditor.CheckConservation(census);
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kTxnConservation));
}

// --- Event-time monotonicity ---

TEST(AuditorTest, DetectsTimeGoingBackwards) {
  Auditor auditor;
  auditor.OnEventTime(100);
  auditor.OnEventTime(100);  // Equal is fine (zero-delay events).
  EXPECT_EQ(auditor.violation_count(), 0);
  auditor.OnEventTime(99);  // Injected.
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kTimeMonotonicity))
      << auditor.Summary();
}

// --- Replay digest ---

TEST(AuditorTest, ReplayDigestMatchesSameStream) {
  Auditor a;
  Auditor b;
  for (int i = 0; i < 10; ++i) {
    a.FoldOp(static_cast<uint64_t>(AuditOp::kRead), i, i * 2, 0, i * 7);
    b.FoldOp(static_cast<uint64_t>(AuditOp::kRead), i, i * 2, 0, i * 7);
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_TRUE(a.VerifyReplay(b.digest()));
  EXPECT_EQ(a.violation_count(), 0);
}

TEST(AuditorTest, DetectsSeedReplayDivergence) {
  Auditor a;
  Auditor b;
  a.FoldOp(static_cast<uint64_t>(AuditOp::kRead), 1, 10, 0, 5);
  b.FoldOp(static_cast<uint64_t>(AuditOp::kWrite), 1, 10, 0, 5);  // Injected.
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_FALSE(a.VerifyReplay(b.digest()));
  EXPECT_TRUE(HasViolation(a, AuditInvariant::kReplayDivergence))
      << a.Summary();
}

TEST(AuditorTest, DigestIsOrderSensitive) {
  Auditor a;
  Auditor b;
  a.FoldOp(1, 1, 0, 0, 0);
  a.FoldOp(2, 2, 0, 0, 0);
  b.FoldOp(2, 2, 0, 0, 0);
  b.FoldOp(1, 1, 0, 0, 0);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(FnvDigestTest, KnownProperties) {
  FnvDigest digest;
  uint64_t empty = digest.value();
  digest.Fold(0);  // Folding a zero word must still change the digest.
  EXPECT_NE(digest.value(), empty);
  digest.Reset();
  EXPECT_EQ(digest.value(), empty);
}

// --- Recording cap ---

TEST(AuditorTest, RecordsUpToCapButCountsAll) {
  AuditorOptions options;
  options.max_recorded = 3;
  Auditor auditor(options);
  for (int i = 0; i < 10; ++i) {
    auditor.Report(AuditInvariant::kTxnConservation, i, "injected");
  }
  EXPECT_EQ(auditor.violations().size(), 3u);
  EXPECT_EQ(auditor.violation_count(), 10);
}

// --- Waits-for snapshot ---

TEST(WaitsForSnapshotTest, NoCycleOnDag) {
  WaitsForSnapshot graph;
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 3);
  graph.AddEdge(1, 3);
  EXPECT_TRUE(graph.FindCycle().empty());
}

TEST(WaitsForSnapshotTest, FindsCycleMembers) {
  WaitsForSnapshot graph;
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 3);
  graph.AddEdge(3, 1);
  graph.AddEdge(4, 1);  // Off-cycle spur.
  std::vector<TxnId> cycle = graph.FindCycle();
  ASSERT_EQ(cycle.size(), 3u);
  for (TxnId member : cycle) {
    EXPECT_TRUE(member == 1 || member == 2 || member == 3);
  }
}

/// The pre-flat-storage FindCycle, kept as the reference the flat version
/// must match: a map from waiter to blockers, roots in ascending order, and
/// each node's blockers copied and sorted whenever it is on top of the stack.
std::vector<TxnId> ReferenceFindCycle(
    const std::vector<std::pair<TxnId, TxnId>>& edge_list) {
  std::map<TxnId, std::vector<TxnId>> edges;
  for (const auto& [waiter, blocker] : edge_list) {
    edges[waiter].push_back(blocker);
  }
  enum class Color { kGray, kBlack };
  std::map<TxnId, Color> color;
  std::map<TxnId, TxnId> parent;
  for (const auto& [root, unused] : edges) {
    if (color.count(root) > 0) continue;
    std::vector<std::pair<TxnId, size_t>> stack;
    color[root] = Color::kGray;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [node, child_index] = stack.back();
      std::vector<TxnId> blockers;
      auto it = edges.find(node);
      if (it != edges.end()) {
        blockers = it->second;
        std::sort(blockers.begin(), blockers.end());
      }
      if (child_index >= blockers.size()) {
        color[node] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      TxnId next = blockers[child_index++];
      auto color_it = color.find(next);
      if (color_it == color.end()) {
        color[next] = Color::kGray;
        parent[next] = node;
        stack.emplace_back(next, 0);
      } else if (color_it->second == Color::kGray) {
        std::vector<TxnId> cycle;
        cycle.push_back(next);
        for (TxnId walk = node; walk != next; walk = parent.at(walk)) {
          cycle.push_back(walk);
        }
        std::reverse(cycle.begin() + 1, cycle.end());
        return cycle;
      }
    }
  }
  return {};
}

// High fan-out graphs (every waiter waits for dozens of transactions, with
// duplicate edges and blockers that wait for nothing): the flat search
// returns exactly the reference's cycle, or none when the reference finds
// none, whatever order the edges arrive in.
TEST(WaitsForSnapshotTest, HighFanOutMatchesReference) {
  int cyclic = 0;
  WaitsForSnapshot graph;  // Reused across graphs, as checkers reuse it.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<std::pair<TxnId, TxnId>> edges;
    const int64_t waiters = rng.UniformInt(20, 120);
    const int64_t fan_out = rng.UniformInt(10, 60);
    // Mostly edges toward higher ids (acyclic); a few back edges on half the
    // seeds close cycles somewhere deep in the search.
    for (TxnId waiter = 1; waiter <= waiters; ++waiter) {
      for (int64_t e = 0; e < fan_out; ++e) {
        edges.emplace_back(waiter, waiter + rng.UniformInt(1, 2 * waiters));
      }
    }
    if (seed % 2 == 0) {
      for (int back = 0; back < 3; ++back) {
        const TxnId from = rng.UniformInt(waiters / 2, waiters);
        edges.emplace_back(from, rng.UniformInt(1, from));
      }
    }
    for (int order = 0; order < 2; ++order) {
      if (order == 1) std::reverse(edges.begin(), edges.end());
      graph.Clear();
      for (const auto& [waiter, blocker] : edges) {
        graph.AddEdge(waiter, blocker);
      }
      const std::vector<TxnId> expected = ReferenceFindCycle(edges);
      EXPECT_EQ(graph.FindCycle(), expected) << "seed " << seed;
      if (order == 0 && !expected.empty()) ++cyclic;
    }
  }
  EXPECT_GT(cyclic, 5) << "the sweep should plant cycles";
}

TEST(WaitsForSnapshotTest, SelfLoopAndClearedGraph) {
  WaitsForSnapshot graph;
  graph.AddEdge(5, 5);
  EXPECT_EQ(graph.FindCycle(), std::vector<TxnId>{5});
  graph.Clear();
  EXPECT_TRUE(graph.empty());
  EXPECT_TRUE(graph.FindCycle().empty());
}

// --- Lock-table deep check against a real deadlock ---

TEST(LockManagerAuditTest, CleanTableHasNoViolations) {
  LockManager locks;
  Auditor auditor;
  locks.SetAuditor(&auditor);
  ASSERT_EQ(locks.Request(1, 10, LockMode::kShared, true),
            LockRequestOutcome::kGranted);
  ASSERT_EQ(locks.Request(2, 10, LockMode::kExclusive, true),
            LockRequestOutcome::kWaiting);
  locks.AuditCheck(&auditor, /*doomed=*/{});
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
}

TEST(LockManagerAuditTest, UnresolvedDeadlockIsPermanentBlock) {
  LockManager locks;
  Auditor auditor;
  ASSERT_EQ(locks.Request(1, 10, LockMode::kExclusive, true),
            LockRequestOutcome::kGranted);
  ASSERT_EQ(locks.Request(2, 20, LockMode::kExclusive, true),
            LockRequestOutcome::kGranted);
  ASSERT_EQ(locks.Request(1, 20, LockMode::kExclusive, true),
            LockRequestOutcome::kWaiting);
  ASSERT_EQ(locks.Request(2, 10, LockMode::kExclusive, true),
            LockRequestOutcome::kWaiting);
  // Nobody was chosen as a victim: the cycle is a permanent block.
  locks.AuditCheck(&auditor, /*doomed=*/{});
  EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kPermanentBlock))
      << auditor.Summary();
  // With one member doomed (its abort in flight), the cycle is being
  // resolved and must not be reported.
  Auditor resolved;
  locks.AuditCheck(&resolved, /*doomed=*/{2});
  EXPECT_EQ(resolved.violation_count(), 0) << resolved.Summary();
}

// The incremental checker alone (no full scan) must flag the same deadlock:
// the cycle closes with a newly queued waiter, which triggers its search.
TEST(LockManagerAuditTest, UnresolvedDeadlockIsPermanentBlockIncrementally) {
  auto build_deadlock = [](LockManager* locks) {
    ASSERT_EQ(locks->Request(1, 10, LockMode::kExclusive, true),
              LockRequestOutcome::kGranted);
    ASSERT_EQ(locks->Request(2, 20, LockMode::kExclusive, true),
              LockRequestOutcome::kGranted);
    ASSERT_EQ(locks->Request(1, 20, LockMode::kExclusive, true),
              LockRequestOutcome::kWaiting);
    ASSERT_EQ(locks->Request(2, 10, LockMode::kExclusive, true),
              LockRequestOutcome::kWaiting);
  };
  {
    LockManager locks;
    Auditor auditor;
    locks.SetAuditor(&auditor);  // Changes are recorded only when attached.
    build_deadlock(&locks);
    locks.AuditChanges(&auditor, /*doomed=*/{});
    EXPECT_TRUE(HasViolation(auditor, AuditInvariant::kPermanentBlock))
        << auditor.Summary();
    // The change set was consumed: a second pass has nothing to re-check.
    Auditor again;
    locks.AuditChanges(&again, /*doomed=*/{});
    EXPECT_EQ(again.violation_count(), 0) << again.Summary();
  }
  {
    // With one member doomed, the cycle is being resolved.
    LockManager locks;
    Auditor resolved;
    locks.SetAuditor(&resolved);
    build_deadlock(&locks);
    locks.AuditChanges(&resolved, /*doomed=*/{2});
    EXPECT_EQ(resolved.violation_count(), 0) << resolved.Summary();
  }
}

// A waiter whose blockers all left without granting it (a lost wake-up in
// the table itself) fires from the changed granule's rules alone.
TEST(LockManagerAuditTest, IncrementalChecksCoverChangedGranulesOnly) {
  LockManager locks;
  Auditor auditor;
  locks.SetAuditor(&auditor);
  ASSERT_EQ(locks.Request(1, 10, LockMode::kShared, true),
            LockRequestOutcome::kGranted);
  ASSERT_EQ(locks.Request(2, 10, LockMode::kExclusive, true),
            LockRequestOutcome::kWaiting);
  ASSERT_EQ(locks.Request(3, 30, LockMode::kExclusive, true),
            LockRequestOutcome::kGranted);
  locks.AuditChanges(&auditor, /*doomed=*/{});
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
  // Releasing txn 1 grants txn 2; the pass sees granule 10 and txn 2 and
  // finds them consistent.
  ASSERT_EQ(locks.ReleaseAll(1), std::vector<TxnId>{2});
  locks.AuditChanges(&auditor, /*doomed=*/{});
  locks.AuditCheck(&auditor, /*doomed=*/{});
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
  EXPECT_GT(locks.audit_scan_size(), 0u);
}

// A transaction holding more locks than the quadratic duplicate scan covers
// takes the sorting path of the per-transaction rules; both checkers stay
// clean on a consistent table.
TEST(LockManagerAuditTest, LongHeldListsCheckClean) {
  LockManager locks;
  Auditor auditor;
  locks.SetAuditor(&auditor);
  for (ObjectId obj = 0; obj < 40; ++obj) {
    ASSERT_EQ(locks.Request(1, obj, LockMode::kShared, true),
              LockRequestOutcome::kGranted);
  }
  ASSERT_EQ(locks.Request(2, 39, LockMode::kExclusive, true),
            LockRequestOutcome::kWaiting);
  locks.AuditChanges(&auditor, /*doomed=*/{});
  locks.AuditCheck(&auditor, /*doomed=*/{});
  EXPECT_EQ(auditor.violation_count(), 0) << auditor.Summary();
  EXPECT_EQ(locks.NumHeld(1), 40u);
}

// --- Full-engine sweep: every algorithm, auditing on ---

class AuditedAlgorithmSweep : public testing::TestWithParam<std::string> {};

TEST_P(AuditedAlgorithmSweep, RunsViolationFree) {
  EngineConfig config;
  config.workload.db_size = 100;  // Hot: exercise conflicts and restarts.
  config.workload.tran_size = 5;
  config.workload.min_size = 2;
  config.workload.max_size = 8;
  config.workload.write_prob = 0.4;
  config.workload.num_terms = 20;
  config.workload.mpl = 10;
  config.workload.ext_think_time = 500 * kMillisecond;
  config.workload.obj_io = FromMillis(5);
  config.workload.obj_cpu = FromMillis(2);
  config.resources = ResourceConfig::Finite(1, 2);
  config.algorithm = GetParam();
  config.seed = 2026;
  config.audit = true;
  Simulator sim;
  ClosedSystem system(&sim, config);
  MetricsReport report = system.RunExperiment(4, 5 * kSecond, 2 * kSecond);
  ASSERT_GT(report.commits, 0);
  ASSERT_TRUE(report.audited);
  EXPECT_GT(report.audit_checks, 0);
  EXPECT_NE(report.replay_digest, 0u);
  EXPECT_EQ(report.audit_violations, 0) << system.auditor()->Summary();
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AuditedAlgorithmSweep,
                         testing::ValuesIn(AllAlgorithms()),
                         [](const testing::TestParamInfo<std::string>& param_info) {
                           return param_info.param;
                         });

// --- Differential: incremental checks vs the full scan after every event ---

/// Every recorded violation as one comparable line.
std::vector<std::string> ViolationLines(const Auditor& auditor) {
  std::vector<std::string> lines;
  for (const AuditViolation& v : auditor.violations()) {
    lines.push_back(std::string(AuditInvariantName(v.invariant)) + " t=" +
                    std::to_string(v.time) + " txn=" + std::to_string(v.txn) +
                    ": " + v.detail);
  }
  return lines;
}

/// Steps `system` one event at a time until `done()` or the queue drains.
/// After every event (each transition happens inside one) the full scan runs
/// into a shadow auditor beside the engine's own incremental checks; at the
/// end both auditors must report the same violations, and none.
template <typename Done>
void ExpectIncrementalMatchesFullScan(const EngineConfig& config, Done done,
                                      const std::string& label) {
  Simulator sim;
  ClosedSystem system(&sim, config);
  Auditor shadow;
  system.Prime();
  int64_t events = 0;
  while (!done(sim, system) && sim.Step()) {
    system.AuditFullScan(&shadow);
    ++events;
  }
  system.AuditFinal();
  system.AuditFullScan(&shadow);
  ASSERT_NE(system.auditor(), nullptr);
  EXPECT_GT(events, 0) << label;
  EXPECT_GT(system.total_commits(), 0) << label;
  EXPECT_EQ(ViolationLines(*system.auditor()), ViolationLines(shadow))
      << label;
  EXPECT_EQ(system.auditor()->violation_count(), 0)
      << label << ": " << system.auditor()->Summary();
  EXPECT_EQ(shadow.violation_count(), 0) << label << ": " << shadow.Summary();
}

class AuditDifferentialTest : public testing::TestWithParam<std::string> {};

TEST_P(AuditDifferentialTest, SweepConfigMatchesFullScan) {
  EngineConfig config;  // AuditedAlgorithmSweep's point.
  config.workload.db_size = 100;
  config.workload.tran_size = 5;
  config.workload.min_size = 2;
  config.workload.max_size = 8;
  config.workload.write_prob = 0.4;
  config.workload.num_terms = 20;
  config.workload.mpl = 10;
  config.workload.ext_think_time = 500 * kMillisecond;
  config.workload.obj_io = FromMillis(5);
  config.workload.obj_cpu = FromMillis(2);
  config.resources = ResourceConfig::Finite(1, 2);
  config.algorithm = GetParam();
  config.seed = 2026;
  config.audit = true;
  ExpectIncrementalMatchesFullScan(
      config,
      [](const Simulator& sim, const ClosedSystem&) {
        return sim.Now() >= 12 * kSecond;
      },
      GetParam());
}

TEST_P(AuditDifferentialTest, VerifyScenariosMatchFullScan) {
  for (const verify::Scenario& scenario : verify::TinyScenarios(GetParam())) {
    const int64_t target = static_cast<int64_t>(scenario.commit_target) *
                           scenario.config.workload.num_terms;
    ExpectIncrementalMatchesFullScan(
        scenario.config,
        [&](const Simulator& sim, const ClosedSystem& system) {
          return system.total_commits() >= target ||
                 sim.events_fired() >= scenario.event_budget;
        },
        GetParam() + "/" + scenario.name);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AuditDifferentialTest,
                         testing::ValuesIn(AllAlgorithms()),
                         [](const testing::TestParamInfo<std::string>& param_info) {
                           return param_info.param;
                         });

// Auditing must not change the simulation: same seed with and without the
// auditor attached yields identical metrics (the auditor is a pure observer).
TEST(AuditOverheadTest, AuditingDoesNotPerturbResults) {
  EngineConfig config;
  config.workload.db_size = 200;
  config.workload.num_terms = 20;
  config.workload.mpl = 10;
  config.workload.ext_think_time = 500 * kMillisecond;
  config.workload.obj_io = FromMillis(5);
  config.workload.obj_cpu = FromMillis(2);
  config.resources = ResourceConfig::Finite(1, 2);
  config.algorithm = "blocking";
  config.seed = 7;
  config.audit = false;
  Simulator plain_sim;
  ClosedSystem plain(&plain_sim, config);
  MetricsReport plain_report = plain.RunExperiment(3, 5 * kSecond, kSecond);

  config.audit = true;
  Simulator audited_sim;
  ClosedSystem audited(&audited_sim, config);
  MetricsReport audited_report =
      audited.RunExperiment(3, 5 * kSecond, kSecond);

  EXPECT_EQ(plain_report.commits, audited_report.commits);
  EXPECT_EQ(plain_report.restarts, audited_report.restarts);
  EXPECT_EQ(plain_report.blocks, audited_report.blocks);
  EXPECT_DOUBLE_EQ(plain_report.throughput.mean,
                   audited_report.throughput.mean);
  EXPECT_EQ(audited_report.audit_violations, 0)
      << audited.auditor()->Summary();
}

}  // namespace
}  // namespace ccsim
