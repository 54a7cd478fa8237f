#include "obs/lifecycle_stats.h"

#include <algorithm>

namespace ccsim {

namespace {

/// Hot-granule sketch size: far above any workload's true heavy-hitter count
/// yet O(1) memory regardless of db_size (obs/contention.h).
constexpr size_t kHotGranuleCapacity = 4096;
/// Rows written to the hot_<algo>_mpl<N>.csv table.
constexpr size_t kHotGranuleTopK = 64;
/// Chain-depth walks stop here; a depth this large means a waits-for cycle
/// whose victim has not been chosen yet.
constexpr int kMaxChainWalk = 64;

/// Largest charge wins; ties break toward the smaller txn id so the report
/// is a deterministic function of the run.
void PickTop(const std::unordered_map<TxnId, int64_t>& charges, TxnId* who,
             int64_t* amount) {
  *who = kInvalidTxn;
  *amount = 0;
  for (const auto& [txn, charged] : charges) {
    if (charged > *amount || (charged == *amount && *who != kInvalidTxn &&
                              txn < *who)) {
      *who = txn;
      *amount = charged;
    }
  }
}

}  // namespace

void LifecycleStats::TxnObs::Recycle() {
  std::vector<Charge> blocks = std::move(block_charges);
  std::vector<Charge> wasted_incarnations = std::move(wasted_charges);
  *this = TxnObs{};
  block_charges = std::move(blocks);
  block_charges.clear();
  wasted_charges = std::move(wasted_incarnations);
  wasted_charges.clear();
}

LifecycleStats::LifecycleStats(StatsRegistry* registry,
                               const CCStats* cc_stats, size_t live_txns)
    : contention_(kHotGranuleCapacity) {
  txns_.Reserve(live_txns);
  // Cumulative counters; the sampler records them per tick, so the time
  // series shows rates as slopes.
  commits_ = registry->AddCounter("commits");
  restarts_ = {registry->AddCounter("restarts_wound"),
               registry->AddCounter("restarts_decision"),
               registry->AddCounter("restarts_validation")};
  decisions_ = {registry->AddCounter("cc_granted"),
                registry->AddCounter("cc_blocked"),
                registry->AddCounter("cc_denied")};
  wasted_cpu_us_ = registry->AddCounter("wasted_cpu_us");
  wasted_disk_us_ = registry->AddCounter("wasted_disk_us");
  // Generic gauges over CCStats (every algorithm).
  registry->AddGauge("cc_deadlocks", [cc_stats] {
    return static_cast<double>(cc_stats->deadlocks_detected);
  });
  registry->AddGauge("cc_lock_conflicts", [cc_stats] {
    return static_cast<double>(cc_stats->lock_conflicts);
  });
  registry->AddGauge("cc_validation_failures", [cc_stats] {
    return static_cast<double>(cc_stats->validation_failures);
  });
  registry->AddGauge("cc_wounds", [cc_stats] {
    return static_cast<double>(cc_stats->wounds);
  });
  registry->AddGauge("cc_ts_rejections", [cc_stats] {
    return static_cast<double>(cc_stats->timestamp_rejections);
  });
  chain_depth_ = registry->AddHistogram("block_chain_depth", 1.0, 33.0, 32);
  genealogy_ = registry->AddHistogram("restart_genealogy", 1.0, 33.0, 32);
}

void LifecycleStats::Record(const TraceRecord& record) {
  TxnObs& txn = record.event == TxnEvent::kSubmitted
                    ? txns_.Insert(record.txn)
                    : txns_.At(record.txn);
  switch (record.event) {
    case TxnEvent::kSubmitted:
      txn.ready_since = record.time;
      break;
    case TxnEvent::kActivated:
      txn.ready += record.time - txn.ready_since;
      txn.incarnation_start = record.time;
      txn.cc_block = 0;
      txn.think = 0;
      txn.opponent = kInvalidTxn;
      txn.block_opponent = kInvalidTxn;
      txn.block_charges.clear();
      break;
    case TxnEvent::kBlocked:
      OnBlocked(record.txn, txn, record.time);
      break;
    case TxnEvent::kResumed: {
      const SimTime blocked = record.time - txn.blocked_since;
      txn.cc_block += blocked;
      txn.block_charges.emplace_back(txn.block_opponent, blocked);
      txn.block_opponent = kInvalidTxn;
      txn.waits_for = kInvalidTxn;
      break;
    }
    case TxnEvent::kInternalThink:
      // Booked whole at its start: an incarnation that commits has finished
      // its think, and one that restarts discards its phase buckets.
      txn.think += record.think;
      break;
    case TxnEvent::kRestarted:
      OnRestarted(record, txn);
      break;
    case TxnEvent::kCommitted:
      OnCommitted(record, txn);
      txns_.Erase(record.txn);
      break;
  }
}

void LifecycleStats::OnBlocked(TxnId id, TxnObs& txn, SimTime now) {
  txn.blocked_since = now;
  if (txn.block_opponent != kInvalidTxn && txn.block_opponent != id) {
    txn.waits_for = txn.block_opponent;
  }
  // Chain depth = waits-for edges reachable from this transaction through
  // opponents that are themselves blocked. An unknown opponent still counts
  // as one edge: the transaction does wait behind *someone*.
  int depth = 0;
  TxnId cursor = id;
  for (int hops = 0; hops < kMaxChainWalk; ++hops) {
    const TxnObs* at = txns_.Find(cursor);
    if (at == nullptr || at->waits_for == kInvalidTxn) break;
    ++depth;
    cursor = at->waits_for;
    if (cursor == id) break;  // Cycle: a deadlock awaiting victim selection.
  }
  if (depth == 0) depth = 1;
  chain_depth_->Add(static_cast<double>(depth));
}

void LifecycleStats::OnRestarted(const TraceRecord& record, TxnObs& txn) {
  // The whole aborted incarnation is wasted work, wall-to-wall: service,
  // waits, and thinks alike are repeated by the replay. It is charged to
  // the opponent of the conflict that killed it (kInvalidTxn when the
  // algorithm could not name one).
  const SimTime wasted = record.time - txn.incarnation_start;
  txn.wasted += wasted;
  txn.wasted_charges.emplace_back(txn.opponent, wasted);
  txn.waits_for = kInvalidTxn;
  txn.restart_delay += record.restart_delay;
  txn.ready_since = record.time + record.restart_delay;
  restarts_[static_cast<size_t>(record.cause)]->Inc();
  wasted_cpu_us_->Add(record.cost.cpu);
  wasted_disk_us_->Add(record.cost.disk);
}

void LifecycleStats::OnCommitted(const TraceRecord& record,
                                 const TxnObs& txn) {
  commits_->Inc();
  // Phase decomposition of the full response, folded at commit so the sums
  // cover exactly the measured population. The final incarnation's active
  // time that no bucket claims (group-commit window waits, zero-delay
  // scheduling hops) lands in `other`, keeping the identity
  //   response = ready + restart_delay + wasted + cc_block + cpu + disk
  //            + res_wait + think + other
  // exact in integer microseconds.
  Window& w = window_;
  const IncarnationCost& cost = record.cost;
  const SimTime disk = cost.disk + cost.log;
  ++w.commits;
  w.ready += txn.ready;
  w.restart_delay += txn.restart_delay;
  w.wasted += txn.wasted;
  w.cc_block += txn.cc_block;
  w.cpu += cost.cpu;
  w.disk += disk;
  w.res_wait += cost.queued;
  w.think += txn.think;
  w.other += (record.time - txn.incarnation_start) -
             (txn.cc_block + cost.cpu + disk + cost.queued + txn.think);
  // Blame folds at the same instant, over the same charges that produced
  // `wasted` / `cc_block`, so attribution and phase totals agree in exact
  // integer µs (obs/blame.h).
  for (const auto& [aborter, us] : txn.wasted_charges) {
    if (aborter == kInvalidTxn) continue;
    w.blame.wasted_attributed_us += us;
    ++w.blame.restarts_charged;
    w.wasted_by_aborter[aborter] += us;
  }
  for (const auto& [holder, us] : txn.block_charges) {
    if (holder == kInvalidTxn) continue;
    w.blame.blocked_attributed_us += us;
    ++w.blame.blocks_charged;
    w.blocked_by_holder[holder] += us;
  }
  w.genealogy_sum += record.incarnation;
  w.blame.genealogy_max =
      std::max<int64_t>(w.blame.genealogy_max, record.incarnation);
  genealogy_->Add(static_cast<double>(record.incarnation));
}

void LifecycleStats::OnBlame(TxnId victim, TxnId opponent, ObjectId obj,
                             BlameKind kind) {
  contention_.Record(obj, kind);
  TxnObs& txn = txns_.At(victim);
  if (kind == BlameKind::kBlock) {
    txn.block_opponent = opponent;
  } else {
    txn.opponent = opponent;
  }
}

TxnId LifecycleStats::BlockedBehind(TxnId txn) const {
  const TxnObs* state = txns_.Find(txn);
  return state == nullptr ? kInvalidTxn : state->block_opponent;
}

void LifecycleStats::ResetMeasurement() {
  window_ = Window{};
  contention_.Reset();
}

PhaseBreakdown LifecycleStats::Phases() const {
  const Window& w = window_;
  PhaseBreakdown phases;
  phases.collected = true;
  if (w.commits == 0) return phases;
  const double n = static_cast<double>(w.commits);
  phases.ready = ToSeconds(w.ready) / n;
  phases.cc_block = ToSeconds(w.cc_block) / n;
  phases.cpu = ToSeconds(w.cpu) / n;
  phases.disk = ToSeconds(w.disk) / n;
  phases.resource_wait = ToSeconds(w.res_wait) / n;
  phases.think = ToSeconds(w.think) / n;
  phases.restart_delay = ToSeconds(w.restart_delay) / n;
  phases.wasted = ToSeconds(w.wasted) / n;
  phases.other = ToSeconds(w.other) / n;
  return phases;
}

BlameBreakdown LifecycleStats::Blame() const {
  // The unattributed remainders are derived from the phase sums, so the
  // conservation identity holds by construction *iff* every charge was also
  // booked as phase time (the tests assert they are non-negative).
  const Window& w = window_;
  BlameBreakdown b = w.blame;
  b.collected = true;
  b.wasted_us = w.wasted;
  b.blocked_us = w.cc_block;
  b.wasted_unattributed_us = w.wasted - b.wasted_attributed_us;
  b.blocked_unattributed_us = w.cc_block - b.blocked_attributed_us;
  if (w.commits > 0) {
    b.genealogy_mean = static_cast<double>(w.genealogy_sum) /
                       static_cast<double>(w.commits);
  }
  PickTop(w.wasted_by_aborter, &b.top_aborter, &b.top_aborter_wasted_us);
  PickTop(w.blocked_by_holder, &b.top_holder, &b.top_holder_blocked_us);
  return b;
}

bool LifecycleStats::WriteHotCsv(const std::string& path) const {
  return contention_.WriteCsv(path, kHotGranuleTopK);
}

}  // namespace ccsim
