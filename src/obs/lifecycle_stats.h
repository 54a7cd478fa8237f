// The phase and blame view of the transaction lifecycle stream
// (docs/OBSERVABILITY.md).
//
// A subscriber (obs/trace.h) that the engine attaches when observability is
// on. It keeps each live transaction's phase times and blame charges in its
// own slot map and folds them into the measurement window when the
// transaction commits: the source of MetricsReport::phases and ::blame
// (obs/phase.h, obs/blame.h). It also owns the engine-level instruments —
// the commit, restart-by-cause, cc-decision and wasted-µs counters, gauges
// over the cc algorithm's CCStats, the waits-for chain-depth and
// restart-genealogy histograms — and the hot-granule sketch, which the cc
// algorithm's on_blame callback feeds through OnBlame.
//
// It only reads the record stream and the blame callback; nothing feeds
// back into the simulation, so turning it on changes no metric.
#ifndef CCSIM_OBS_LIFECYCLE_STATS_H_
#define CCSIM_OBS_LIFECYCLE_STATS_H_

#include <array>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cc/concurrency_control.h"
#include "obs/blame.h"
#include "obs/contention.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "util/dense_table.h"

namespace ccsim {

class LifecycleStats : public TraceSink {
 public:
  /// Registers the instruments in `registry`, in this (sampler column)
  /// order: commits, restarts by cause, cc decisions, wasted µs, the gauges
  /// over `cc_stats`, then the two histograms. `live_txns` sizes the slot
  /// map for the expected number of live transactions.
  LifecycleStats(StatsRegistry* registry, const CCStats* cc_stats,
                 size_t live_txns);

  void Record(const TraceRecord& record) override;

  /// The cc on_blame callback: remembers `opponent` on the victim (as the
  /// holder it blocks behind for kBlock, as the cause of its next restart
  /// otherwise) and books the conflict on `obj` in the hot-granule sketch.
  void OnBlame(TxnId victim, TxnId opponent, ObjectId obj, BlameKind kind);

  /// Counts one cc decision (cc_granted / cc_blocked / cc_denied).
  void CountDecision(CCDecision decision) {
    decisions_[static_cast<size_t>(decision)]->Inc();
  }

  /// The holder named by `txn`'s latest kBlock blame (kInvalidTxn if none);
  /// the Perfetto tracer draws its waits-for arrow from it.
  TxnId BlockedBehind(TxnId txn) const;

  /// Starts a measurement window; live transactions keep their state.
  void ResetMeasurement();

  /// Mean seconds per commit of each phase over the window's commits.
  PhaseBreakdown Phases() const;
  /// Blame aggregates over the window's commits.
  BlameBreakdown Blame() const;
  /// Writes the hottest granules as CSV; returns stream health.
  bool WriteHotCsv(const std::string& path) const;

 private:
  /// (opponent, µs): one charge against the transaction that caused it.
  using Charge = std::pair<TxnId, SimTime>;

  /// One live transaction's phase and blame state (all µs).
  struct TxnObs {
    SimTime ready_since = 0;  ///< Entered (or will enter) the ready queue.
    SimTime incarnation_start = 0;
    SimTime blocked_since = 0;  ///< Last cc block began.
    // Whole-transaction sums (survive restarts).
    SimTime ready = 0;
    SimTime restart_delay = 0;
    SimTime wasted = 0;
    // Current incarnation (reset at kActivated).
    SimTime cc_block = 0;
    SimTime think = 0;
    /// Opponent of the latest restart-causing conflict.
    TxnId opponent = kInvalidTxn;
    /// Holder behind the current (or just-resolved) cc block.
    TxnId block_opponent = kInvalidTxn;
    /// Waits-for edge while blocked behind a known holder (chain depth).
    TxnId waits_for = kInvalidTxn;
    /// One per resolved block of the current incarnation, charged to the
    /// holder; folded at commit, dropped at restart — the lifecycle of
    /// cc_block, so the blocked-µs identity is exact.
    std::vector<Charge> block_charges;
    /// One per restarted incarnation, charged to the aborter; folded at
    /// commit — the lifecycle of `wasted`.
    std::vector<Charge> wasted_charges;

    /// Slot-reuse reset that keeps the charge vectors' capacity.
    void Recycle();
  };

  /// Aggregates over the measurement window's commits (all µs).
  struct Window {
    int64_t commits = 0;
    SimTime ready = 0, restart_delay = 0, wasted = 0;
    SimTime cc_block = 0, cpu = 0, disk = 0, res_wait = 0, think = 0;
    SimTime other = 0;
    /// The charges that named an opponent, and genealogy_max; Blame()
    /// derives the remaining fields.
    BlameBreakdown blame;
    int64_t genealogy_sum = 0;
    std::unordered_map<TxnId, int64_t> wasted_by_aborter;
    std::unordered_map<TxnId, int64_t> blocked_by_holder;
  };

  void OnBlocked(TxnId id, TxnObs& txn, SimTime now);
  void OnRestarted(const TraceRecord& record, TxnObs& txn);
  void OnCommitted(const TraceRecord& record, const TxnObs& txn);

  TxnSlotMap<TxnObs> txns_;
  Window window_;
  ContentionProfiler contention_;

  ObsCounter* commits_;
  std::array<ObsCounter*, 3> restarts_;   ///< Indexed by RestartCause.
  std::array<ObsCounter*, 3> decisions_;  ///< Indexed by CCDecision.
  ObsCounter* wasted_cpu_us_;
  ObsCounter* wasted_disk_us_;
  Histogram* chain_depth_;
  Histogram* genealogy_;
};

}  // namespace ccsim

#endif  // CCSIM_OBS_LIFECYCLE_STATS_H_
