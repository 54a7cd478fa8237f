// Pins the engine's zero-steady-state-allocation property end to end: once
// a ClosedSystem has warmed up (event arena, lock-table node pools, deadlock
// scratch, transaction slots and pool slot stores grown to working size),
// simulating more commits must never touch the global heap — in every
// resource mode.
// sim_alloc_test pins the kernel and the cc decision path in isolation; this
// pin covers what they miss: service requests (docs/PERFORMANCE.md,
// "Service path"), transaction generation, the ready queue, and the auditor
// (docs/AUDIT.md).
//
// Like sim_alloc_test, this binary must stay single-purpose: the counting
// operator new is process-global.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/closed_system.h"
#include "sim/simulator.h"

namespace {

// Plain counter: the engine and the test run on one thread.
std::size_t g_news = 0;

}  // namespace

// Routing operator new through malloc/free trips the compiler's pairing
// analysis, although replacing the global allocation functions this way is
// well-defined (see sim_alloc_test.cc).
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ccsim {
namespace {

constexpr int64_t kMeasuredCommits = 1000;

/// Table 1 of the paper (db_size 1000, 200 terminals, 8 ± 4 accesses, 1 s
/// external think, 35 ms obj_io, 15 ms obj_cpu) at mpl 50: enough contention
/// that blocking blocks, deadlocks and restarts.
EngineConfig PaperPoint(const ResourceConfig& resources) {
  EngineConfig config;
  config.workload.db_size = 1000;
  config.workload.tran_size = 8;
  config.workload.min_size = 4;
  config.workload.max_size = 12;
  config.workload.write_prob = 0.25;
  config.workload.num_terms = 200;
  config.workload.mpl = 50;
  config.workload.ext_think_time = kSecond;
  config.workload.obj_io = FromMillis(35);
  config.workload.obj_cpu = FromMillis(15);
  config.resources = resources;
  config.algorithm = "blocking";
  config.seed = 42;
  return config;
}

/// Simulated warm-up before counting: long enough for every terminal's
/// transaction slot to have been used once and the cc scratch, lock-node
/// and slot pools to reach their working size (each allocates only on
/// first use).
constexpr SimTime kWarmup = 100 * kSecond;

struct AllocRun {
  std::size_t allocs = 0;
  int64_t commits = 0;
  int64_t restarts = 0;
  int64_t audit_full_scans = 0;
};

/// Runs `config` for `warmup`, then counts heap allocations over the next
/// kMeasuredCommits commits or more.
AllocRun MeasureSteadyState(const EngineConfig& config,
                            SimTime warmup = kWarmup) {
  Simulator sim;
  ClosedSystem system(&sim, config);
  system.Prime();
  sim.RunUntil(warmup);
  const int64_t commits_before = system.total_commits();
  const int64_t restarts_before = system.total_restarts();
  const int64_t scans_before = system.audit_full_scans();
  const std::size_t before = g_news;
  while (system.total_commits() - commits_before < kMeasuredCommits) {
    sim.RunUntil(sim.Now() + kSecond);
  }
  AllocRun run;
  run.allocs = g_news - before;
  run.commits = system.total_commits() - commits_before;
  run.restarts = system.total_restarts() - restarts_before;
  run.audit_full_scans = system.audit_full_scans() - scans_before;
  return run;
}

TEST(EngineAllocTest, BlockingInfiniteResourcesIsAllocationFree) {
  const AllocRun run =
      MeasureSteadyState(PaperPoint(ResourceConfig::Infinite()));
  EXPECT_GE(run.commits, kMeasuredCommits);
  EXPECT_GT(run.restarts, 0) << "the point should exercise restarts";
  EXPECT_EQ(run.allocs, 0u)
      << "steady-state commits allocated on the infinite service path";
}

TEST(EngineAllocTest, BlockingFiniteResourcesIsAllocationFree) {
  const AllocRun run =
      MeasureSteadyState(PaperPoint(ResourceConfig::Finite(1, 2)));
  EXPECT_GE(run.commits, kMeasuredCommits);
  EXPECT_EQ(run.allocs, 0u)
      << "steady-state commits allocated on the queued service path";
}

// The Fig 8 point (mpl 200 on 1 CPU and 2 disks) blocks about twice per
// commit and runs a deadlock search at every block, so it pins the search
// path, in-edge check included, at the contention where it does the most.
// It commits only about 3 times per simulated second, so its 200 lock-table
// transaction records take about 800 s to grow their held-lock lists to the
// largest transaction's size; the warm-up covers that.
TEST(EngineAllocTest, BlockingDeadlockHeavyFiniteIsAllocationFree) {
  EngineConfig config = PaperPoint(ResourceConfig::Finite(1, 2));
  config.workload.mpl = 200;
  const AllocRun run = MeasureSteadyState(config, 1000 * kSecond);
  EXPECT_GE(run.commits, kMeasuredCommits);
  EXPECT_GT(run.restarts, run.commits / 2)
      << "the point should be deadlock-heavy";
  EXPECT_EQ(run.allocs, 0u)
      << "steady-state commits allocated on the deadlock search path";
}

TEST(EngineAllocTest, BlockingFiniteWithLogAndInternalThinkIsAllocationFree) {
  EngineConfig config = PaperPoint(ResourceConfig::Finite(1, 2));
  config.workload.log_io = FromMillis(10);
  config.workload.int_think_time = kSecond;
  const AllocRun run = MeasureSteadyState(config);
  EXPECT_GE(run.commits, kMeasuredCommits);
  EXPECT_EQ(run.allocs, 0u)
      << "steady-state commits allocated on the log or internal-think path";
}

// The auditor runs at every transition (the incremental lock-table and
// census checks) and its full scan runs periodically; neither may allocate
// once its checker-owned scratch is warm.
TEST(EngineAllocTest, AuditedBlockingIsAllocationFree) {
  EngineConfig config = PaperPoint(ResourceConfig::Infinite());
  config.audit = true;
  config.obs.enabled = false;
  const AllocRun run = MeasureSteadyState(config);
  EXPECT_GE(run.commits, kMeasuredCommits);
  EXPECT_GT(run.restarts, 0) << "the point should exercise restarts";
  EXPECT_GT(run.audit_full_scans, 0)
      << "the measured window should include a full audit scan";
  EXPECT_EQ(run.allocs, 0u) << "steady-state commits allocated in the auditor";
}

// Static locking predeclares each transaction's granules at activation and
// queues whole transactions; neither may allocate per commit. (The residue,
// about 0.05 per commit, is mostly granules' reader sets growing to new
// high-water marks.)
TEST(EngineAllocTest, StaticLockingInfiniteResourcesBarelyAllocates) {
  EngineConfig config = PaperPoint(ResourceConfig::Infinite());
  config.algorithm = "static_locking";
  const AllocRun run = MeasureSteadyState(config);
  EXPECT_GE(run.commits, kMeasuredCommits);
  EXPECT_LT(static_cast<double>(run.allocs) / static_cast<double>(run.commits),
            0.1)
      << run.allocs << " allocations over " << run.commits << " commits";
}

// The optimistic algorithms' full audit scan compares flush claims with the
// validated write sets by writer identity, in place: it may not build a
// buffer per scan.
TEST(EngineAllocTest, AuditedOptimisticBarelyAllocates) {
  for (const char* algorithm : {"optimistic", "optimistic_forward"}) {
    EngineConfig config = PaperPoint(ResourceConfig::Infinite());
    config.algorithm = algorithm;
    config.audit = true;
    config.obs.enabled = false;
    const AllocRun run = MeasureSteadyState(config);
    EXPECT_GE(run.commits, kMeasuredCommits);
    EXPECT_GT(run.audit_full_scans, 0) << algorithm;
    EXPECT_LT(
        static_cast<double>(run.allocs) / static_cast<double>(run.commits), 0.1)
        << algorithm << ": " << run.allocs << " allocations over "
        << run.commits << " commits";
  }
}

TEST(EngineAllocTest, CounterSeesEngineAllocations) {
  // The counter must see the engine at all: building a ClosedSystem
  // allocates its tables.
  const std::size_t before = g_news;
  Simulator sim;
  ClosedSystem system(&sim, PaperPoint(ResourceConfig::Infinite()));
  EXPECT_GT(g_news - before, 0u);
}

}  // namespace
}  // namespace ccsim
