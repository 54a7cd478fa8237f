// Pins the event kernel's zero-steady-state-allocation property
// (sim/simulator.h "Hot-path design"): once the arena, free list, and heap
// have grown to their working size, scheduling / cancelling / firing events
// with engine-sized captures must never touch the global heap. The test
// replaces the global allocation functions with counting wrappers and
// asserts a zero delta across a measured churn loop.
//
// This binary must stay single-purpose: the counting operator new is
// process-global, so it lives in its own test executable rather than in
// sim_test.
// The same pin covers the concurrency-control decision path: post-warmup,
// a blocking-CC request/block/grant/commit cycle must not allocate either
// (the dense tables, pooled waiter nodes, and recycled per-transaction
// buffers of docs/PERFORMANCE.md "Dense CC state"), nor may a basic_to or
// optimistic_forward wait on any reserved granule (cc/granule_waits.h). Neither pin exercises
// service requests, workload generation or deadlock resolution; those are
// pinned end to end, in a running engine, by engine_alloc_test.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cc/concurrency_control.h"
#include "cc/factory.h"
#include "sim/simulator.h"

namespace {

// Plain (non-atomic) counters: the simulator and the test run on one thread,
// and gtest does not allocate concurrently with the measured loop.
std::size_t g_news = 0;

}  // namespace

// The replacements below intentionally route operator new through
// malloc/free; the compiler's pairing analysis flags that as a mismatch
// (seen under the TSan build's inlining) even though replacing the global
// allocation functions this way is well-defined.
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

/// The engine's dominant event pattern (a completion plus a cancelled guard
/// timeout) with a capture close to EventCallback's inline capacity. A
/// ServerPool completion event captures only [pool, slot] (16 bytes);
/// service requests themselves are pinned end to end by engine_alloc_test.
void ChurnOnce(Simulator& sim, uint64_t* sink) {
  // 7 x 8 bytes = 56 of the 64 inline bytes.
  uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
  sim.Schedule(1, [sink, a, b, c, d, e, f] { *sink += a + b + c + d + e + f; });
  EventId guard = sim.Schedule(1000, [sink] { *sink += 1; });
  ASSERT_TRUE(sim.Step());
  ASSERT_TRUE(sim.Cancel(guard));
}

TEST(SimAllocTest, SteadyStateChurnIsAllocationFree) {
  Simulator sim;
  uint64_t sink = 0;
  // Warmup: grow the arena chunks and the heap vector to working size.
  for (int i = 0; i < 10000; ++i) ChurnOnce(sim, &sink);
  while (sim.Step()) {
  }

  const std::size_t before = g_news;
  for (int i = 0; i < 10000; ++i) ChurnOnce(sim, &sink);
  const std::size_t after = g_news;
  EXPECT_EQ(after - before, 0u)
      << "steady-state scheduling allocated; an event capture probably "
         "outgrew EventCallback's inline capacity (util/small_fn.h)";

  while (sim.Step()) {
  }
  EXPECT_EQ(sink, 10000u * 2u * 21u);
}

TEST(SimAllocTest, BlockingDecisionPathIsAllocationFree) {
  // One full contention cycle of the blocking algorithm: transaction `a`
  // acquires six read locks and upgrades two, `b` blocks behind the upgrade
  // (running the deadlock detector), a's commit grants b, b re-issues and
  // finishes. Fresh ids every cycle, like the real engine (commit -> new
  // transaction), so this also pins the TxnSlotMap recycle path.
  std::unique_ptr<ConcurrencyControl> cc = MakeConcurrencyControl("blocking");
  cc->ReserveCapacity(/*num_objects=*/64, /*num_txns=*/8);
  std::vector<TxnId> granted;
  granted.reserve(16);
  SimTime clock = 0;
  CCCallbacks callbacks;
  callbacks.on_granted = [&granted](TxnId id) { granted.push_back(id); };
  callbacks.on_wound = [](TxnId) {};
  callbacks.now = [&clock] { return clock; };
  cc->SetCallbacks(std::move(callbacks));

  auto cycle = [&](TxnId a) {
    const TxnId b = a + 1;
    ++clock;
    cc->OnBegin(a, clock, clock);
    ++clock;
    cc->OnBegin(b, clock, clock);
    for (ObjectId obj = 0; obj < 6; ++obj) {
      ASSERT_EQ(cc->ReadRequest(a, obj), CCDecision::kGranted);
    }
    ASSERT_EQ(cc->WriteRequest(a, 0), CCDecision::kGranted);
    ASSERT_EQ(cc->WriteRequest(a, 1), CCDecision::kGranted);
    ASSERT_EQ(cc->ReadRequest(b, 0), CCDecision::kBlocked);
    ASSERT_TRUE(cc->Validate(a));
    cc->Commit(a);  // Grants b.
    ASSERT_EQ(granted.size(), 1u);
    granted.clear();
    ASSERT_EQ(cc->ReadRequest(b, 0), CCDecision::kGranted);  // Re-issue.
    ASSERT_TRUE(cc->Validate(b));
    cc->Commit(b);
  };

  // Warmup: grow the lock table, waiter pool, detector scratch, and the
  // transaction slot index to working size.
  for (TxnId id = 1; id < 2000; id += 2) cycle(id);

  const std::size_t before = g_news;
  for (TxnId id = 2001; id < 4000; id += 2) cycle(id);
  EXPECT_EQ(g_news - before, 0u)
      << "steady-state cc decisions allocated; a dense table, waiter pool, "
         "or per-transaction buffer is growing instead of recycling";
}

/// Drives one wait/wake cycle per granule through `cc` after warming it up
/// on granule 0 only, so every measured wait is the first on its granule:
/// parking a transaction on a reserved granule must not allocate, whether or
/// not that granule ever had a waiter. `cycle(cc, a, obj)` runs transactions
/// a and a + 1 through one cycle on `obj`; `granted` collects wake-ups.
template <typename Cycle>
void ExpectWaitsAllocationFree(const char* algorithm, Cycle&& cycle) {
  constexpr ObjectId kObjects = 64;
  std::unique_ptr<ConcurrencyControl> cc = MakeConcurrencyControl(algorithm);
  cc->ReserveCapacity(kObjects, /*num_txns=*/8);
  std::vector<TxnId> granted;
  granted.reserve(16);
  SimTime clock = 0;
  CCCallbacks callbacks;
  callbacks.on_granted = [&granted](TxnId id) { granted.push_back(id); };
  callbacks.on_wound = [](TxnId) {};
  callbacks.now = [&clock] { return ++clock; };
  cc->SetCallbacks(std::move(callbacks));

  TxnId next = 1;
  for (int i = 0; i < 100; ++i, next += 2) cycle(*cc, next, 0, granted);

  const std::size_t before = g_news;
  for (ObjectId obj = 1; obj < kObjects; ++obj, next += 2) {
    cycle(*cc, next, obj, granted);
  }
  EXPECT_EQ(g_news - before, 0u)
      << algorithm << ": a wait on a reserved granule allocated";
}

TEST(SimAllocTest, BasicToWaitOnEveryGranuleIsAllocationFree) {
  // a prewrites obj, younger b's read waits for it, a's commit wakes b.
  ExpectWaitsAllocationFree(
      "basic_to", [](ConcurrencyControl& cc, TxnId a, ObjectId obj,
                     std::vector<TxnId>& granted) {
        const TxnId b = a + 1;
        cc.OnBegin(a, 0, 0);
        cc.OnBegin(b, 0, 0);
        ASSERT_EQ(cc.ReadRequest(a, obj), CCDecision::kGranted);
        ASSERT_EQ(cc.WriteRequest(a, obj), CCDecision::kGranted);
        ASSERT_EQ(cc.ReadRequest(b, obj), CCDecision::kBlocked);
        ASSERT_TRUE(cc.Validate(a));
        cc.Commit(a);
        ASSERT_EQ(granted.size(), 1u);
        ASSERT_EQ(granted[0], b);
        granted.clear();
        ASSERT_EQ(cc.ReadRequest(b, obj), CCDecision::kGranted);
        ASSERT_TRUE(cc.Validate(b));
        cc.Commit(b);
      });
}

TEST(SimAllocTest, ForwardOptimisticWaitOnEveryGranuleIsAllocationFree) {
  // a validates a write of obj, b's read waits out the flush, a's commit
  // wakes b.
  ExpectWaitsAllocationFree(
      "optimistic_forward", [](ConcurrencyControl& cc, TxnId a, ObjectId obj,
                               std::vector<TxnId>& granted) {
        const TxnId b = a + 1;
        cc.OnBegin(a, 0, 0);
        ASSERT_EQ(cc.ReadRequest(a, obj), CCDecision::kGranted);
        ASSERT_EQ(cc.WriteRequest(a, obj), CCDecision::kGranted);
        ASSERT_TRUE(cc.Validate(a));
        cc.OnBegin(b, 0, 0);
        ASSERT_EQ(cc.ReadRequest(b, obj), CCDecision::kBlocked);
        cc.Commit(a);
        ASSERT_EQ(granted.size(), 1u);
        ASSERT_EQ(granted[0], b);
        granted.clear();
        ASSERT_EQ(cc.ReadRequest(b, obj), CCDecision::kGranted);
        ASSERT_TRUE(cc.Validate(b));
        cc.Commit(b);
      });
}

TEST(SimAllocTest, OversizedCaptureFallsBackToHeapBox) {
  // Sanity check that the counter actually sees kernel allocations: a
  // capture past the inline capacity must take exactly the documented
  // one-heap-box fallback path.
  Simulator sim;
  uint64_t sink = 0;
  struct Big {
    uint64_t vals[16];  // 128 bytes > 64-byte inline capacity.
  };
  Big big{};
  big.vals[0] = 42;
  const std::size_t before = g_news;
  sim.Schedule(1, [&sink, big] { sink += big.vals[0]; });
  const std::size_t after = g_news;
  EXPECT_GE(after - before, 1u);
  sim.Run();
  EXPECT_EQ(sink, 42u);
}

}  // namespace
}  // namespace ccsim
