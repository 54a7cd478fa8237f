#include "drivers.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "cc/lock_manager.h"
#include "probes.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "wl/workload.h"

namespace perfbench {

using ccsim::LockManager;
using ccsim::LockMode;
using ccsim::ObjectId;
using ccsim::Rng;
using ccsim::SimTime;
using ccsim::Simulator;
using ccsim::TxnId;

namespace {

/// Runs `chunk` (which does some operations and returns how many) once to
/// warm up, then repeatedly until `budget_s` is spent and at least five
/// chunks are timed. Allocations are counted inside the timed chunks only.
template <typename Chunk>
UnitCost RunChunks(double budget_s, Chunk&& chunk) {
  chunk();
  std::vector<double> ns_per_op;
  uint64_t allocs = 0;
  UnitCost cost;
  const int64_t deadline =
      HostNowNs() + static_cast<int64_t>(budget_s * 1e9);
  do {
    AllocCounter::Start();
    const int64_t t0 = HostNowNs();
    const int64_t ops = chunk();
    const int64_t t1 = HostNowNs();
    allocs += AllocCounter::Stop();
    ns_per_op.push_back(static_cast<double>(t1 - t0) /
                        static_cast<double>(ops));
    cost.ops += ops;
  } while (HostNowNs() < deadline || ns_per_op.size() < 5);
  const size_t mid = ns_per_op.size() / 2;
  std::nth_element(ns_per_op.begin(), ns_per_op.begin() + mid,
                   ns_per_op.end());
  cost.ns_per_op = ns_per_op[mid];
  cost.allocs_per_op =
      static_cast<double>(allocs) / static_cast<double>(cost.ops);
  return cost;
}

constexpr int64_t kChunkOps = 20000;

/// A hold model: every fired event schedules its successor, so the pending
/// population stays constant.
class SimLoad {
 public:
  SimLoad(size_t population, uint64_t seed) {
    Rng rng(seed);
    delays_.resize(4096);
    for (SimTime& d : delays_) {
      d = 1 + static_cast<SimTime>(rng.Exponential(ccsim::kSecond));
    }
    for (size_t i = 0; i < population; ++i) Arm();
  }
  int64_t Chunk() {
    for (int64_t i = 0; i < kChunkOps; ++i) sim_.Step();
    return kChunkOps;
  }

 private:
  void Arm() {
    sim_.Schedule(delays_[next_++ & (delays_.size() - 1)],
                  [this] { Arm(); });
  }

  Simulator sim_;
  std::vector<SimTime> delays_;
  size_t next_ = 0;
};

/// mpl clients running pre-generated transactions against one lock table,
/// one request per turn, round-robin.
class LockLoad {
 public:
  LockLoad(const ccsim::WorkloadParams& params, uint64_t seed) {
    ccsim::WorkloadGenerator gen(params, Rng(seed), Rng(seed + 1));
    for (int i = 0; i < 1024; ++i) {
      ccsim::TxnSpec spec = gen.NextTransaction();
      std::vector<std::pair<ObjectId, LockMode>> requests;
      for (ObjectId obj : spec.reads) requests.emplace_back(obj, LockMode::kShared);
      for (ObjectId obj : spec.WriteSet()) {
        requests.emplace_back(obj, LockMode::kExclusive);
      }
      specs_.push_back(std::move(requests));
    }
    locks_.Reserve(static_cast<size_t>(params.db_size),
                   static_cast<size_t>(params.mpl));
    clients_.resize(static_cast<size_t>(params.mpl));
    for (Client& c : clients_) NextTxn(c);
  }
  int64_t Chunk() {
    for (int64_t i = 0; i < kChunkOps; ++i) {
      Client& c = clients_[turn_++ % clients_.size()];
      const auto& [obj, mode] = specs_[c.spec][c.pos];
      if (locks_.Request(c.id, obj, mode, /*enqueue_on_conflict=*/false) ==
          ccsim::LockRequestOutcome::kDenied) {
        locks_.ReleaseAll(c.id);  // Restart the same transaction.
        c.pos = 0;
      } else if (++c.pos == specs_[c.spec].size()) {
        locks_.ReleaseAll(c.id);
        NextTxn(c);
      }
    }
    return kChunkOps;
  }

 private:
  struct Client {
    TxnId id = 0;
    size_t spec = 0;
    size_t pos = 0;
  };
  void NextTxn(Client& c) {
    c.id = next_id_++;
    c.spec = next_spec_++ % specs_.size();
    c.pos = 0;
  }

  LockManager locks_;
  std::vector<std::vector<std::pair<ObjectId, LockMode>>> specs_;
  std::vector<Client> clients_;
  TxnId next_id_ = 1;
  size_t next_spec_ = 0;
  size_t turn_ = 0;
};

/// mpl closed-loop clients, each alternating a disk and a CPU service. The
/// completions capture what the engine's do ([this, id, incarnation, cost,
/// requested-at], 40 bytes), so they take the same storage path.
class ResLoad {
 public:
  ResLoad(const ccsim::ResourceConfig& resources,
          const ccsim::WorkloadParams& params, uint64_t seed)
      : resources_(&sim_, resources, Rng(seed)),
        cpu_(params.obj_cpu),
        io_(params.obj_io) {
    for (int64_t client = 0; client < params.mpl; ++client) Disk(client, 0);
  }
  int64_t Chunk() {
    const int64_t target = services_ + kChunkOps;
    while (services_ < target) sim_.Step();
    return kChunkOps;
  }

 private:
  void Disk(int64_t client, int incarnation) {
    const SimTime req_at = sim_.Now();
    resources_.RequestDisk(
        io_, [this, client, incarnation, cost = io_, req_at] {
          Done(cost, req_at);
          Cpu(client, incarnation);
        });
  }
  void Cpu(int64_t client, int incarnation) {
    const SimTime req_at = sim_.Now();
    resources_.RequestCpu(
        cpu_, ccsim::ServicePriority::kNormal,
        [this, client, incarnation, cost = cpu_, req_at] {
          Done(cost, req_at);
          Disk(client, incarnation + 1);
        });
  }
  void Done(SimTime cost, SimTime req_at) {
    ++services_;
    waited_ += sim_.Now() - req_at - cost;
  }

  Simulator sim_;
  ccsim::ResourceManager resources_;
  SimTime cpu_;
  SimTime io_;
  int64_t services_ = 0;
  SimTime waited_ = 0;
};

}  // namespace

UnitCost TimeSimulator(size_t population, double budget_s, uint64_t seed) {
  SimLoad load(std::max<size_t>(population, 1), seed);
  return RunChunks(budget_s, [&] { return load.Chunk(); });
}

UnitCost TimeLockManager(const ccsim::WorkloadParams& params, double budget_s,
                         uint64_t seed) {
  LockLoad load(params, seed);
  return RunChunks(budget_s, [&] { return load.Chunk(); });
}

UnitCost TimeResources(const ccsim::ResourceConfig& resources,
                       const ccsim::WorkloadParams& params, double budget_s,
                       uint64_t seed) {
  ResLoad load(resources, params, seed);
  return RunChunks(budget_s, [&] { return load.Chunk(); });
}

UnitCost TimeWorkloadGenerator(const ccsim::WorkloadParams& params,
                               double budget_s, uint64_t seed) {
  ccsim::WorkloadGenerator gen(params, Rng(seed), Rng(seed + 1));
  return RunChunks(budget_s, [&] {
    for (int64_t i = 0; i < kChunkOps; ++i) (void)gen.NextTransaction();
    return kChunkOps;
  });
}

}  // namespace perfbench
