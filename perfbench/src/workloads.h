// The benchmark's workloads: four points of the paper's experiments, each a
// fixed list of engine configs (one per algorithm) run for a fixed amount of
// simulated time. The simulator is deterministic, so a workload's simulated
// statistics are a pure function of the seed; only host time varies.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/closed_system.h"
#include "core/experiment.h"
#include "core/metrics.h"

namespace perfbench {

/// Instrumentation a point runs with. `audit` and `obs` are the engine's own
/// layers (EngineConfig::audit / ::obs), not the benchmark's probes.
struct Layers {
  bool audit = false;
  bool obs = false;
};

struct Workload {
  std::string name;
  std::string why;
  /// One point per algorithm, in this order.
  std::vector<std::string> algorithms;
  int64_t db_size = 0;
  int mpl = 0;
  bool infinite = true;
  /// The engine layers the workload's points run with.
  Layers layers;
  /// Simulated effort per point.
  ccsim::RunLengths lengths;
  /// The paper's qualitative result here, as (a, b) pairs: algorithm a's
  /// throughput must exceed algorithm b's at every seed.
  std::vector<std::pair<std::string, std::string>> faster;

  size_t points() const { return algorithms.size(); }
  /// Simulated seconds per point (warmup + batches).
  double SimSecondsPerPoint() const;
};

/// All workloads, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();

/// The named workload, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// The engine config of point `index` of `workload` at master `seed`, with
/// the given engine layers. Point seeds are ccsim::DeriveSeeds(seed, points).
ccsim::EngineConfig PointConfig(const Workload& workload, size_t index,
                                uint64_t seed, Layers layers);

/// The simulated statistics that identify one point's run. Two runs of the
/// same config must produce equal SimStats, whatever probes are attached.
struct SimStats {
  int64_t commits = 0;    ///< Measured window.
  int64_t restarts = 0;   ///< Measured window.
  int64_t blocks = 0;     ///< Measured window.
  int64_t lifetime_commits = 0;  ///< Warmup included.
  uint64_t events = 0;    ///< Kernel events fired, warmup included.
  double throughput = 0;  ///< Committed transactions per simulated second.
  double response = 0;    ///< Mean response time, simulated seconds.
  uint64_t digest = 0;    ///< Replay digest (audited points only).
  int64_t audit_violations = 0;

  bool operator==(const SimStats&) const = default;
  /// One line, full precision ("commits=... response=0x1.8p+0 ...").
  std::string Format() const;
};

SimStats CollectStats(const ccsim::MetricsReport& report,
                      const ccsim::Simulator& sim,
                      const ccsim::ClosedSystem& system);

/// Output checks on one point that hold for every seed: internal consistency
/// of the report and, on audited points, a clean audit. "" when they pass.
std::string CheckPoint(const ccsim::EngineConfig& config,
                       const ccsim::MetricsReport& report,
                       const SimStats& stats);

/// The paper's qualitative result on this workload, checked across its
/// points (for example, blocking beats optimistic on the finite-resource
/// point). "" when it holds or the workload makes no such claim.
std::string CheckPaperShape(const Workload& workload,
                            const std::vector<SimStats>& points);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
