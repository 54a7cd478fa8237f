// Unit tests for the physical resource layer: server pools, priority
// classes, the partitioned disk array, utilization accounting, and the
// simulated fault windows.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "res/resources.h"
#include "res/server_pool.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace ccsim {
namespace {

TEST(ServerPoolTest, SingleServerServesFcfs) {
  Simulator sim;
  ServerPool pool(&sim, 1, /*infinite=*/false);
  std::vector<int> done;
  pool.Request(10, ServicePriority::kNormal, [&] { done.push_back(1); });
  pool.Request(10, ServicePriority::kNormal, [&] { done.push_back(2); });
  pool.Request(10, ServicePriority::kNormal, [&] { done.push_back(3); });
  EXPECT_EQ(pool.busy_servers(), 1);
  EXPECT_EQ(pool.queue_length(), 2u);
  sim.Run();
  EXPECT_EQ(done, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(pool.completed_requests(), 3);
}

TEST(ServerPoolTest, CcPriorityJumpsQueue) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  std::vector<int> done;
  pool.Request(10, ServicePriority::kNormal, [&] { done.push_back(1); });
  pool.Request(10, ServicePriority::kNormal, [&] { done.push_back(2); });
  pool.Request(10, ServicePriority::kConcurrencyControl,
               [&] { done.push_back(3); });
  sim.Run();
  // Request 1 is in service; the cc request preempts the *queue*, not the
  // server, so order is 1, 3, 2.
  EXPECT_EQ(done, (std::vector<int>{1, 3, 2}));
}

TEST(ServerPoolTest, MultipleServersRunConcurrently) {
  Simulator sim;
  ServerPool pool(&sim, 3, false);
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    pool.Request(10, ServicePriority::kNormal, [&] { ++completed; });
  }
  EXPECT_EQ(pool.busy_servers(), 3);
  EXPECT_EQ(pool.queue_length(), 0u);
  sim.Run();
  EXPECT_EQ(sim.Now(), 10);  // All in parallel.
  EXPECT_EQ(completed, 3);
}

TEST(ServerPoolTest, FourthRequestWaitsForFreeServer) {
  Simulator sim;
  ServerPool pool(&sim, 3, false);
  SimTime fourth_done = -1;
  for (int i = 0; i < 3; ++i) {
    pool.Request(10, ServicePriority::kNormal, [] {});
  }
  pool.Request(5, ServicePriority::kNormal, [&] { fourth_done = sim.Now(); });
  sim.Run();
  EXPECT_EQ(fourth_done, 15);  // Waits until 10, then 5 of service.
}

TEST(ServerPoolTest, InfinitePoolNeverQueues) {
  Simulator sim;
  ServerPool pool(&sim, 0, /*infinite=*/true);
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    pool.Request(10, ServicePriority::kNormal, [&] { ++completed; });
  }
  EXPECT_EQ(pool.queue_length(), 0u);
  EXPECT_EQ(pool.busy_servers(), 100);
  sim.Run();
  EXPECT_EQ(sim.Now(), 10);  // Pure delay: all finish together.
  EXPECT_EQ(completed, 100);
}

TEST(ServerPoolTest, UtilizationFullyBusy) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  pool.Request(100, ServicePriority::kNormal, [] {});
  sim.Run();
  EXPECT_DOUBLE_EQ(pool.Utilization(sim.Now()), 1.0);
}

TEST(ServerPoolTest, UtilizationHalfBusy) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  pool.Request(50, ServicePriority::kNormal, [] {});
  sim.Run();
  sim.RunUntil(100);
  EXPECT_DOUBLE_EQ(pool.Utilization(sim.Now()), 0.5);
}

TEST(ServerPoolTest, UtilizationPerServerFraction) {
  Simulator sim;
  ServerPool pool(&sim, 2, false);
  pool.Request(100, ServicePriority::kNormal, [] {});  // One of two busy.
  sim.Run();
  EXPECT_DOUBLE_EQ(pool.Utilization(sim.Now()), 0.5);
}

TEST(ServerPoolTest, WindowResetClearsUtilization) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  pool.Request(50, ServicePriority::kNormal, [] {});
  sim.Run();
  pool.ResetWindow(sim.Now());
  sim.RunUntil(100);
  EXPECT_DOUBLE_EQ(pool.Utilization(sim.Now()), 0.0);
}

TEST(ServerPoolTest, WaitTimeStats) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  pool.Request(10, ServicePriority::kNormal, [] {});
  pool.Request(10, ServicePriority::kNormal, [] {});
  sim.Run();
  // First waited 0, second waited 10 (in seconds: 1e-5).
  EXPECT_EQ(pool.wait_time_stats().count(), 2);
  EXPECT_NEAR(pool.wait_time_stats().Max(), ToSeconds(10), 1e-12);
}

TEST(ServerPoolTest, MeanQueueLength) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  pool.Request(10, ServicePriority::kNormal, [] {});
  pool.Request(10, ServicePriority::kNormal, [] {});  // Queued for [0,10).
  sim.Run();
  // Queue length 1 for 10 of 20 time units = 0.5.
  EXPECT_DOUBLE_EQ(pool.MeanQueueLength(sim.Now()), 0.5);
}

TEST(ServerPoolTest, InfiniteUtilizationReportsZero) {
  Simulator sim;
  ServerPool pool(&sim, 0, true);
  pool.Request(10, ServicePriority::kNormal, [] {});
  sim.Run();
  EXPECT_DOUBLE_EQ(pool.Utilization(sim.Now()), 0.0);
  EXPECT_GT(pool.MeanBusyServers(sim.Now()), 0.0);
}

TEST(ResourceManagerTest, FiniteConfigShape) {
  Simulator sim;
  ResourceManager rm(&sim, ResourceConfig::Finite(2, 4), Rng(1));
  EXPECT_EQ(rm.num_disks(), 4);
  EXPECT_EQ(rm.cpu().num_servers(), 2);
  EXPECT_FALSE(rm.cpu().infinite());
}

TEST(ResourceManagerTest, InfiniteConfigShape) {
  Simulator sim;
  ResourceManager rm(&sim, ResourceConfig::Infinite(), Rng(1));
  EXPECT_TRUE(rm.cpu().infinite());
  EXPECT_EQ(rm.num_disks(), 1);  // One infinite pool stands in for all disks.
  EXPECT_TRUE(rm.disk(0).infinite());
}

TEST(ResourceManagerTest, RandomDiskSpreadsLoad) {
  Simulator sim;
  ResourceManager rm(&sim, ResourceConfig::Finite(1, 4), Rng(7));
  for (int i = 0; i < 400; ++i) {
    rm.RequestDisk(1, [] {});
  }
  sim.Run();
  for (int d = 0; d < 4; ++d) {
    // Each disk should see roughly 100 of 400 accesses.
    EXPECT_GT(rm.disk(d).completed_requests(), 60);
    EXPECT_LT(rm.disk(d).completed_requests(), 140);
  }
}

TEST(ResourceManagerTest, RequestDiskAtTargetsSpecificDisk) {
  Simulator sim;
  ResourceManager rm(&sim, ResourceConfig::Finite(1, 3), Rng(7));
  rm.RequestDiskAt(2, 10, [] {});
  sim.Run();
  EXPECT_EQ(rm.disk(2).completed_requests(), 1);
  EXPECT_EQ(rm.disk(0).completed_requests(), 0);
}

TEST(ResourceManagerTest, DiskUtilizationIsMeanAcrossDisks) {
  Simulator sim;
  ResourceManager rm(&sim, ResourceConfig::Finite(1, 2), Rng(7));
  rm.RequestDiskAt(0, 100, [] {});  // Disk 0 fully busy, disk 1 idle.
  sim.Run();
  EXPECT_DOUBLE_EQ(rm.DiskUtilization(sim.Now()), 0.5);
}

TEST(ResourceManagerTest, CpuUtilization) {
  Simulator sim;
  ResourceManager rm(&sim, ResourceConfig::Finite(1, 1), Rng(7));
  rm.RequestCpu(25, ServicePriority::kNormal, [] {});
  sim.Run();
  sim.RunUntil(100);
  EXPECT_DOUBLE_EQ(rm.CpuUtilization(sim.Now()), 0.25);
}

TEST(ResourceManagerTest, ResetWindowResetsAllPools) {
  Simulator sim;
  ResourceManager rm(&sim, ResourceConfig::Finite(1, 2), Rng(7));
  rm.RequestCpu(10, ServicePriority::kNormal, [] {});
  rm.RequestDiskAt(0, 10, [] {});
  sim.Run();
  rm.ResetWindow(sim.Now());
  sim.RunUntil(20);
  EXPECT_DOUBLE_EQ(rm.CpuUtilization(sim.Now()), 0.0);
  EXPECT_DOUBLE_EQ(rm.DiskUtilization(sim.Now()), 0.0);
}

TEST(ResourceManagerTest, SingleDiskSkipsRng) {
  // With one disk the choice is deterministic and must not consume random
  // numbers (keeps workloads comparable across disk counts).
  Simulator sim;
  ResourceManager rm(&sim, ResourceConfig::Finite(1, 1), Rng(55));
  for (int i = 0; i < 10; ++i) rm.RequestDisk(1, [] {});
  sim.Run();
  EXPECT_EQ(rm.disk(0).completed_requests(), 10);
}

// ---------------------------------------------------------------------------
// Simulated fault windows (docs/FAULTS.md, "Fault windows").

TEST(FaultWindowTest, StallDefersNewStartsUntilWindowEnds) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  pool.SetFaultWindow({FaultWindowKind::kStall, 10, 20});
  SimTime done_at = -1;
  sim.Schedule(12, [&] {
    pool.Request(5, ServicePriority::kNormal, [&] { done_at = sim.Now(); });
  });
  sim.Run();
  // Arrived at 12 into an *idle* pool, but the window queues it anyway;
  // the drain at 20 starts the 5 µs of service.
  EXPECT_EQ(done_at, 25);
  EXPECT_EQ(pool.faulted_requests(), 1);
  EXPECT_EQ(pool.fault_delay(), 8);  // 20 - 12 spent waiting on the window.
}

TEST(FaultWindowTest, StallLetsInFlightWorkComplete) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  pool.SetFaultWindow({FaultWindowKind::kStall, 10, 20});
  SimTime in_flight_done = -1;
  // Starts at 8, completes at 13 — inside the window, but a stall only
  // blocks new starts; in-flight service is unaffected.
  sim.Schedule(8, [&] {
    pool.Request(5, ServicePriority::kNormal,
                 [&] { in_flight_done = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(in_flight_done, 13);
  EXPECT_EQ(pool.faulted_requests(), 0);
  EXPECT_EQ(pool.fault_delay(), 0);
}

TEST(FaultWindowTest, OutageHoldsCompletionsToWindowEnd) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  pool.SetFaultWindow({FaultWindowKind::kOutage, 10, 20});
  SimTime done_at = -1;
  // Starts at 8, would complete at 13 — but the device is off the bus, so
  // the completion lands when the window lifts.
  sim.Schedule(8, [&] {
    pool.Request(5, ServicePriority::kNormal, [&] { done_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(done_at, 20);
  EXPECT_EQ(pool.faulted_requests(), 1);
  EXPECT_EQ(pool.fault_delay(), 7);  // Held from 13 to 20.
}

TEST(FaultWindowTest, DrainServesCcClassFirst) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  pool.SetFaultWindow({FaultWindowKind::kStall, 10, 20});
  std::vector<int> order;
  sim.Schedule(11, [&] {
    pool.Request(5, ServicePriority::kNormal, [&] { order.push_back(1); });
  });
  sim.Schedule(12, [&] {
    pool.Request(5, ServicePriority::kConcurrencyControl,
                 [&] { order.push_back(2); });
  });
  sim.Run();
  // The drain respects the two-class discipline: cc work deferred by the
  // window still jumps the normal queue.
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(pool.faulted_requests(), 2);
}

TEST(FaultWindowTest, InfinitePoolStallsQueueAndDrainTogether) {
  Simulator sim;
  ServerPool pool(&sim, 0, /*infinite=*/true);
  pool.SetFaultWindow({FaultWindowKind::kStall, 10, 20});
  int completed = 0;
  sim.Schedule(15, [&] {
    for (int i = 0; i < 8; ++i) {
      pool.Request(5, ServicePriority::kNormal, [&] { ++completed; });
    }
  });
  sim.Run();
  // An infinite pool normally never queues; during the window it must, and
  // the drain releases the whole backlog at once (all complete at 25).
  EXPECT_EQ(sim.Now(), 25);
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(pool.faulted_requests(), 8);
  EXPECT_EQ(pool.fault_delay(), 8 * 5);  // Each waited 15 -> 20.
}

TEST(FaultWindowTest, CompletedWindowIsInertAfterwards) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  pool.SetFaultWindow({FaultWindowKind::kStall, 10, 20});
  SimTime done_at = -1;
  sim.Schedule(30, [&] {
    pool.Request(5, ServicePriority::kNormal, [&] { done_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(done_at, 35);  // Past the window: plain FCFS service.
  EXPECT_EQ(pool.faulted_requests(), 0);
}

TEST(FaultWindowDeathTest, RejectsMalformedWindows) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  EXPECT_DEATH(pool.SetFaultWindow({FaultWindowKind::kStall, 20, 10}), "");
  ServerPool armed(&sim, 1, false);
  armed.SetFaultWindow({FaultWindowKind::kStall, 10, 20});
  EXPECT_DEATH(armed.SetFaultWindow({FaultWindowKind::kStall, 30, 40}), "");
}

TEST(ResourceManagerTest, DiskFaultWindowArmsEveryDiskAndAggregates) {
  Simulator sim;
  ResourceConfig config = ResourceConfig::Finite(1, 2);
  config.disk_fault = {FaultWindowKind::kStall, 10, 20};
  ResourceManager rm(&sim, config, Rng(55));
  sim.Schedule(12, [&] {
    rm.RequestDiskAt(0, 5, [] {});
    rm.RequestDiskAt(1, 5, [] {});
  });
  sim.Run();
  EXPECT_TRUE(rm.disk(0).fault_window().enabled());
  EXPECT_TRUE(rm.disk(1).fault_window().enabled());
  EXPECT_FALSE(rm.cpu().fault_window().enabled());
  EXPECT_EQ(rm.faulted_requests(), 2);  // Summed across the array.
  EXPECT_EQ(rm.fault_delay(), 2 * 8);
}

TEST(ResourceManagerTest, FaultedGaugeRegisteredOnlyWhenWindowArmed) {
  // The `<pool>_faulted` gauge only exists for pools with an armed window:
  // an unfaulted run's sampler CSV schema must stay byte-identical to the
  // pre-fault-window builds.
  Simulator sim;
  ResourceConfig config = ResourceConfig::Finite(1, 2);
  config.cpu_fault = {FaultWindowKind::kOutage, 10, 20};
  ResourceManager rm(&sim, config, Rng(55));
  StatsRegistry registry;
  rm.RegisterStats(&registry);
  auto columns = registry.ColumnNames();
  auto has = [&](const std::string& name) {
    return std::find(columns.begin(), columns.end(), name) != columns.end();
  };
  EXPECT_TRUE(has("cpu_faulted"));
  EXPECT_FALSE(has("disk0_faulted"));
  EXPECT_FALSE(has("disk1_faulted"));

  Simulator plain_sim;
  ResourceManager plain(&plain_sim, ResourceConfig::Finite(1, 2), Rng(55));
  StatsRegistry plain_registry;
  plain.RegisterStats(&plain_registry);
  for (const std::string& name : plain_registry.ColumnNames()) {
    EXPECT_EQ(name.find("_faulted"), std::string::npos) << name;
  }
}

// ---------------------------------------------------------------------------
// The service path's slot store (res/server_pool.h, docs/PERFORMANCE.md
// "Service path").

TEST(SlotStoreTest, CompletionRequestsWhileTheStoreGrows) {
  // 60 requests nearly fill the first 64-slot chunk; each completion then
  // issues follow-ups from inside done(), so the store grows into a second
  // chunk while completions run in place in their slots.
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  std::vector<int> order;
  constexpr int kFirst = 60;
  for (int i = 0; i < kFirst; ++i) {
    pool.Request(2, ServicePriority::kNormal, [&, i] {
      order.push_back(i);
      pool.Request(3, ServicePriority::kNormal,
                   [&, i] { order.push_back(1000 + i); });
      if (i % 2 == 0) {
        pool.Request(1, ServicePriority::kNormal,
                     [&, i] { order.push_back(2000 + i); });
      }
    });
  }
  EXPECT_EQ(pool.queue_length(), static_cast<size_t>(kFirst - 1));
  sim.Run();
  // FCFS: the first wave, then the follow-ups in the order they were issued.
  std::vector<int> expected;
  for (int i = 0; i < kFirst; ++i) expected.push_back(i);
  for (int i = 0; i < kFirst; ++i) {
    expected.push_back(1000 + i);
    if (i % 2 == 0) expected.push_back(2000 + i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(pool.completed_requests(), kFirst + kFirst + kFirst / 2);
  EXPECT_EQ(pool.queue_length(), 0u);
  EXPECT_GT(pool.slots_used(), 64u);
  EXPECT_LE(pool.slots_used(), static_cast<size_t>(kFirst + kFirst));
}

TEST(SlotStoreTest, ChainedRequestsReuseTwoSlots) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  int remaining = 1000;
  std::function<void()> next = [&] {
    if (--remaining > 0) pool.Request(1, ServicePriority::kNormal, next);
  };
  pool.Request(1, ServicePriority::kNormal, next);
  sim.Run();
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(pool.completed_requests(), 1000);
  // Each request was issued from its predecessor's completion, which still
  // held its slot: two slots, reused 500 times each.
  EXPECT_EQ(pool.slots_used(), 2u);
}

TEST(SlotStoreTest, InfinitePoolHoldsOneSlotPerOutstandingRequest) {
  Simulator sim;
  ServerPool pool(&sim, 0, /*infinite=*/true);
  int completed = 0;
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 100; ++i) {
      pool.Request(1 + i % 7, ServicePriority::kNormal, [&] { ++completed; });
    }
    sim.Run();
    // Every request of a wave is in service at once; later waves reuse the
    // first wave's slots.
    EXPECT_EQ(pool.slots_used(), 100u);
  }
  EXPECT_EQ(completed, 300);
  EXPECT_EQ(pool.completed_requests(), 300);
}

/// Bursts of `burst` requests every 10 µs from t = 0 to 90 across a fault
/// window [20, 50): slots freed by earlier bursts must be reused by later
/// ones, before, during and after the window.
void RunBurstsAcrossWindow(ServerPool* pool, Simulator* sim, int burst,
                           int* completed) {
  for (SimTime t = 0; t < 100; t += 10) {
    sim->ScheduleAt(t, [=] {
      for (int i = 0; i < burst; ++i) {
        pool->Request(3, ServicePriority::kNormal, [=] { ++*completed; });
      }
    });
  }
  sim->Run();
}

TEST(SlotStoreTest, SlotsAreReusedAcrossStallAndOutageWindows) {
  for (FaultWindowKind kind :
       {FaultWindowKind::kStall, FaultWindowKind::kOutage}) {
    for (bool infinite : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "kind=" << static_cast<int>(kind)
                   << " infinite=" << infinite);
      Simulator sim;
      ServerPool pool(&sim, 2, infinite);
      pool.SetFaultWindow({kind, 20, 50});
      int completed = 0;
      RunBurstsAcrossWindow(&pool, &sim, /*burst=*/4, &completed);
      EXPECT_EQ(completed, 40);
      EXPECT_EQ(pool.completed_requests(), 40);
      EXPECT_EQ(pool.busy_servers(), 0);
      EXPECT_EQ(pool.queue_length(), 0u);
      EXPECT_GT(pool.faulted_requests(), 0);
      // At most 16 requests are ever outstanding (the three bursts the
      // window holds plus the one at its end); a store that reused nothing
      // would need 40 slots.
      EXPECT_GT(pool.slots_used(), 0u);
      EXPECT_LE(pool.slots_used(), 16u);
    }
  }
}

TEST(SlotStoreTest, CcClassIsFifoAmongInterleavedClasses) {
  Simulator sim;
  ServerPool pool(&sim, 1, false);
  std::vector<int> order;
  // Request 0 takes the server; the rest alternate classes while it runs.
  for (int i = 0; i < 9; ++i) {
    const ServicePriority priority = i % 2 == 1
                                         ? ServicePriority::kConcurrencyControl
                                         : ServicePriority::kNormal;
    pool.Request(5, priority, [&, i] {
      order.push_back(i);
      // A cc request issued mid-run still goes ahead of queued normal work,
      // but behind the cc work already waiting.
      if (i == 3) {
        pool.Request(5, ServicePriority::kConcurrencyControl,
                     [&] { order.push_back(100); });
      }
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 5, 7, 100, 2, 4, 6, 8}));
}

/// A fixed request script: 40 arrivals 3 µs apart on a 2-server pool with
/// mixed classes and service times, every fourth completion issuing a
/// follow-up, and a measurement-window reset at t = 30.
struct ScriptResult {
  int64_t completed = 0;
  int64_t waits = 0;
  double wait_mean = 0, wait_max = 0, wait_variance = 0;
  double mean_busy = 0, mean_queue = 0;
  SimTime end = 0;
  int64_t faulted = 0;
  SimTime fault_delay = 0;
  uint64_t order_hash = 0;
};

ScriptResult RunRequestScript(bool infinite, FaultWindow window) {
  Simulator sim;
  ServerPool pool(&sim, 2, infinite);
  if (window.enabled()) pool.SetFaultWindow(window);
  std::vector<int> order;
  for (int i = 0; i < 40; ++i) {
    sim.ScheduleAt(3 * i, [&, i] {
      const ServicePriority priority =
          i % 3 == 0 ? ServicePriority::kConcurrencyControl
                     : ServicePriority::kNormal;
      pool.Request(5 + (i * 7) % 11, priority, [&, i] {
        order.push_back(i);
        if (i % 4 == 0) {
          pool.Request(4, ServicePriority::kNormal,
                       [&, i] { order.push_back(100 + i); });
        }
      });
    });
  }
  sim.ScheduleAt(30, [&] { pool.ResetWindow(sim.Now()); });
  sim.Run();
  ScriptResult r;
  r.completed = pool.completed_requests();
  r.waits = pool.wait_time_stats().count();
  r.wait_mean = pool.wait_time_stats().Mean();
  r.wait_max = pool.wait_time_stats().Max();
  r.wait_variance = pool.wait_time_stats().Variance();
  r.mean_busy = pool.MeanBusyServers(sim.Now());
  r.mean_queue = pool.MeanQueueLength(sim.Now());
  r.end = sim.Now();
  r.faulted = pool.faulted_requests();
  r.fault_delay = pool.fault_delay();
  for (int x : order) {
    r.order_hash = r.order_hash * 31 + static_cast<uint64_t>(x);
  }
  return r;
}

TEST(SlotStoreTest, FixedScriptReproducesTheDequeImplementation) {
  // Expected values were captured from the pool before the slot store
  // replaced its std::deque queues and by-value completions; every
  // statistic must match bit for bit.
  struct Case {
    bool infinite;
    FaultWindow window;
    ScriptResult want;
  };
  const FaultWindow none;
  const FaultWindow stall{FaultWindowKind::kStall, 20, 40};
  const FaultWindow outage{FaultWindowKind::kOutage, 50, 70};
  const Case cases[] = {
      {false, none,
       {50, 43, 0x1.b4fcea65dbe3fp-15, 0x1.8a43bb40b34e7p-14,
        0x1.3f323e374c7b2p-30, 0x1.feac6f6b70bfp+0, 0x1.6ded6e17e02a7p+3, 223,
        0, 0, 0xf403a22214882cf6ull}},
      {true, none,
       {50, 37, 0, 0, 0, 0x1.b67ebb9079a9dp+1, 0, 131, 0, 0,
        0x26bd063504a52624ull}},
      {true, stall,
       {50, 42, 0x1.1605be6734851p-19, 0x1.3ec460ed80a18p-16,
        0x1.c728d536d1de7p-36, 0x1.d260511be1959p+1, 0x1.3a4c0a237c32bp-1, 131,
        8, 87, 0xeebf0617bdfb4264ull}},
      {false, outage,
       {50, 43, 0x1.06634a75292cdp-14, 0x1.b866e43aa79bcp-14,
        0x1.9a8dc24299fccp-30, 0x1p+1, 0x1.9ec04fec04fecp+3, 235, 9, 25,
        0xac46bc09a60a82dcull}},
      {true, outage,
       {50, 37, 0x1.fbd9d223597e8p-20, 0x1.3ec460ed80a18p-16,
        0x1.907fe4eb91d0cp-36, 0x1.01446f86562dap+2, 0x1.62d9faee41e6ap-1, 131,
        11, 130, 0x19a38900c3a7908cull}},
      {false, stall,
       {50, 45, 0x1.1177f7886239bp-14, 0x1.d5c31593e5fb7p-14,
        0x1.a2f2484d859ap-30, 0x1.e52e52e52e52ep+0, 0x1.b57c57c57c57cp+3, 240,
        8, 33, 0xf626399e6ac3b11cull}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "infinite=" << c.infinite
                 << " window=" << static_cast<int>(c.window.kind));
    const ScriptResult got = RunRequestScript(c.infinite, c.window);
    EXPECT_EQ(got.completed, c.want.completed);
    EXPECT_EQ(got.waits, c.want.waits);
    EXPECT_EQ(got.wait_mean, c.want.wait_mean);
    EXPECT_EQ(got.wait_max, c.want.wait_max);
    EXPECT_EQ(got.wait_variance, c.want.wait_variance);
    EXPECT_EQ(got.mean_busy, c.want.mean_busy);
    EXPECT_EQ(got.mean_queue, c.want.mean_queue);
    EXPECT_EQ(got.end, c.want.end);
    EXPECT_EQ(got.faulted, c.want.faulted);
    EXPECT_EQ(got.fault_delay, c.want.fault_delay);
    EXPECT_EQ(got.order_hash, c.want.order_hash);
  }
}

}  // namespace
}  // namespace ccsim
