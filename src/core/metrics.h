// Experiment output: the quantities the paper plots, with batch-means
// confidence intervals.
#ifndef CCSIM_CORE_METRICS_H_
#define CCSIM_CORE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cc/concurrency_control.h"
#include "obs/blame.h"
#include "obs/phase.h"
#include "stats/batch_means.h"

namespace ccsim {

/// Per-class results for multi-class workloads (whole-measurement totals;
/// the intervals in MetricsReport aggregate across classes).
struct ClassMetrics {
  std::string name;
  int64_t commits = 0;
  int64_t restarts = 0;
  double response_mean = 0.0;
  double response_stddev = 0.0;
  double response_max = 0.0;
  bool operator==(const ClassMetrics&) const = default;
};

/// Results of one simulation run (one algorithm at one parameter point).
struct MetricsReport {
  std::string algorithm;
  int mpl = 0;

  /// Committed transactions per second.
  IntervalEstimate throughput;
  /// Mean response time in seconds (submission to commit, across restarts).
  IntervalEstimate response_mean;
  /// Standard deviation of the response-time distribution (paper's dotted
  /// lines in the response-time figures).
  double response_stddev = 0.0;
  /// Response-time distribution percentiles in seconds (histogram estimate,
  /// 0.1 s resolution) and the exact maximum.
  double response_p50 = 0.0;
  double response_p90 = 0.0;
  double response_p99 = 0.0;
  double response_max = 0.0;
  /// Times a transaction blocked, per commit (paper's block ratio).
  IntervalEstimate block_ratio;
  /// Times a transaction restarted, per commit (paper's restart ratio).
  IntervalEstimate restart_ratio;
  /// Disk utilization fraction, total and useful (useful = consumed by
  /// incarnations that committed).
  IntervalEstimate disk_util_total;
  IntervalEstimate disk_util_useful;
  /// CPU utilization fraction, total and useful.
  IntervalEstimate cpu_util_total;
  IntervalEstimate cpu_util_useful;
  /// Log-disk utilization (0 unless the logging extension is enabled).
  IntervalEstimate log_util;
  /// Time-average number of active transactions (the *actual* mpl; the paper
  /// notes immediate-restart's delay caps this well below the allowed mpl).
  double avg_active_mpl = 0.0;

  // Raw totals over the measurement period.
  int64_t commits = 0;
  int64_t restarts = 0;
  int64_t blocks = 0;
  double measured_seconds = 0.0;
  int batches = 0;

  /// Algorithm-level counters at end of run (cumulative since time 0).
  CCStats cc_stats;

  /// Runtime invariant auditing (EngineConfig::audit; docs/AUDIT.md).
  /// `replay_digest` is an FNV-1a digest over the cc op stream: two runs of
  /// the same configuration and seed must report the same digest.
  bool audited = false;
  int64_t audit_violations = 0;
  int64_t audit_checks = 0;
  uint64_t replay_digest = 0;

  /// Per-phase response-time breakdown (EngineConfig::obs;
  /// docs/OBSERVABILITY.md). Means in seconds over measured commits;
  /// `collected` is false — and every field zero — unless observability was
  /// on. The fields sum to the measured response mean.
  PhaseBreakdown phases;

  /// Causal blame attribution (EngineConfig::obs; docs/OBSERVABILITY.md):
  /// wasted µs charged to aborters, blocked µs charged to holders, restart
  /// genealogy. Integer-µs totals reconcile exactly with `phases`.
  BlameBreakdown blame;

  /// Per-class breakdown; one entry per TxnClass (a single entry named
  /// "default" for the paper's single-class workload).
  std::vector<ClassMetrics> per_class;

  /// Field-by-field equality (doubles compare by value).
  bool operator==(const MetricsReport&) const = default;
};

}  // namespace ccsim

#endif  // CCSIM_CORE_METRICS_H_
