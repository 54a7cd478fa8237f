// Standalone layer drivers: each times one layer's public API on a
// workload's parameters, with no engine around it, and reports a unit cost.
// Every driver runs chunks of work until its time budget is spent and
// reports the median chunk, so one noisy chunk cannot move it.
#ifndef PERFBENCH_DRIVERS_H_
#define PERFBENCH_DRIVERS_H_

#include <cstddef>
#include <cstdint>

#include "res/resources.h"
#include "wl/params.h"

namespace perfbench {

struct UnitCost {
  double ns_per_op = 0.0;
  double allocs_per_op = 0.0;
  int64_t ops = 0;  ///< Operations timed, over all chunks.
};

/// Simulator: one event scheduled and fired (Schedule + Step) with
/// `population` events pending, the engine's steady-state heap size.
UnitCost TimeSimulator(size_t population, double budget_s, uint64_t seed);

/// LockManager: one lock request on the workload's db_size by mpl
/// concurrent transactions of the workload's size and write mix, requests
/// denied rather than queued; the ReleaseAll at each transaction's end is
/// amortized into its requests.
UnitCost TimeLockManager(const ccsim::WorkloadParams& params, double budget_s,
                         uint64_t seed);

/// ResourceManager: one service (request through completion callback,
/// including the kernel event that carries it) for mpl closed-loop clients
/// alternating a disk and a CPU service of the workload's costs.
UnitCost TimeResources(const ccsim::ResourceConfig& resources,
                       const ccsim::WorkloadParams& params, double budget_s,
                       uint64_t seed);

/// WorkloadGenerator: one NextTransaction.
UnitCost TimeWorkloadGenerator(const ccsim::WorkloadParams& params,
                               double budget_s, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVERS_H_
