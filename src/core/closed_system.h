// The closed queuing model of a single-site database system (Figure 1 of the
// paper), driven over the physical resource model (Figure 2).
//
// Terminals submit transactions; at most `mpl` transactions are active at
// once (the rest wait in the ready queue). An active transaction alternates
// concurrency control requests with object accesses: every read costs obj_io
// on a random disk followed by obj_cpu; every write costs obj_cpu at request
// time (the update is buffered) and obj_io per object at deferred-update
// time, after which the commit completes and locks are released. An optional
// internal think time separates the read phase from the write phase
// (interactive workloads). Blocked transactions occupy an mpl slot; restarted
// transactions give up their slot, optionally sit out a restart delay, and
// re-enter the *back* of the ready queue to replay the same read/write sets.
#ifndef CCSIM_CORE_CLOSED_SYSTEM_H_
#define CCSIM_CORE_CLOSED_SYSTEM_H_

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "cc/deadlock.h"
#include "cc/factory.h"
#include "cc/restart_policy.h"
#include "core/history.h"
#include "core/metrics.h"
#include "obs/engine_tracer.h"
#include "obs/lifecycle_stats.h"
#include "obs/obs_config.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "obs/trace_json.h"
#include "res/resources.h"
#include "sim/simulator.h"
#include "stats/batch_means.h"
#include "stats/histogram.h"
#include "stats/time_weighted.h"
#include "stats/welford.h"
#include "util/dense_table.h"
#include "util/random.h"
#include "util/ring_queue.h"
#include "wl/workload.h"

namespace ccsim {

/// How transactions enter the system.
enum class SourceMode {
  /// The paper's model: num_terms terminals, each thinking exponentially
  /// between its transaction completions (self-throttling).
  kClosed,
  /// An open system: Poisson arrivals at `arrival_rate` transactions/sec,
  /// independent of completions. The ready queue is unbounded, so an
  /// arrival rate beyond the system's capacity diverges — itself one of the
  /// modeling "alternatives and implications" the paper's title refers to.
  kOpen,
};

/// Full configuration of one simulation run.
struct EngineConfig {
  WorkloadParams workload;
  ResourceConfig resources;
  /// One of AllAlgorithms() (cc/factory.h).
  std::string algorithm = "blocking";
  SourceMode source_mode = SourceMode::kClosed;
  /// Mean Poisson arrival rate (transactions/second) for SourceMode::kOpen.
  double arrival_rate = 0.0;
  /// When true, an object that the transaction will later write is locked
  /// exclusively at *read* time instead of being read-locked and upgraded in
  /// the write phase ("static" write locking of predeclared writes). This
  /// eliminates the upgrade deadlocks that dominate the blocking algorithm's
  /// restarts. No effect on the optimistic algorithm's outcome (its write
  /// declarations are no-ops either way).
  bool x_lock_on_read_intent = false;
  /// Group commit (extension; only meaningful with workload.log_io > 0):
  /// commit log records arriving within this window are flushed with a
  /// single log write instead of one each, trading a little commit latency
  /// for log-disk bandwidth. 0 forces one log write per update transaction.
  SimTime group_commit_window = 0;
  /// Concurrency control granularity (the Ries–Stonebraker question this
  /// model's ancestors were built for): objects are grouped into granules of
  /// this many consecutive ids, and the cc algorithm sees granule ids. One
  /// cc request covers the whole granule, so coarser granules mean fewer
  /// requests (cheaper when cc_cpu > 0) but more false conflicts. 1 (the
  /// paper's setting) makes granules = objects. With record_history, the
  /// history is recorded at granule granularity so the serializability
  /// checkers stay consistent with what the cc algorithm saw.
  int lock_granule_size = 1;
  /// Restart delay mode; nullopt selects the algorithm's conventional
  /// default (adaptive for immediate_restart, none otherwise).
  std::optional<RestartDelayMode> restart_delay_mode;
  /// Mean for RestartDelayMode::kFixed.
  SimTime fixed_restart_delay = 0;
  VictimPolicy victim_policy = VictimPolicy::kYoungest;
  uint64_t seed = 42;
  /// Record the full execution history (serializability tests); costs memory
  /// proportional to run length.
  bool record_history = false;
  /// Runtime invariant auditing (docs/AUDIT.md): the engine and the cc
  /// algorithm cross-check two-phase-locking discipline, lock-table ↔
  /// waits-for consistency, transaction conservation, and event-time
  /// monotonicity, and fold every cc decision into a deterministic replay
  /// digest. Disabled, each hook costs one null-pointer test. Builds
  /// configured with -DCCSIM_AUDIT=ON flip the default to on.
#ifdef CCSIM_AUDIT_DEFAULT_ON
  bool audit = true;
#else
  bool audit = false;
#endif
  /// Observability (docs/OBSERVABILITY.md): stats registry + per-phase
  /// response-time breakdown, optional time-series sampler and Perfetto
  /// trace export. Fully disabled by default; the engine then pays one
  /// branch per event. Excluded from the sweep-journal point key — the same
  /// experiment with different observability is the same experiment.
  ObsConfig obs;
  /// Lifecycle trace sink (run_config --trace): the first subscriber of the
  /// engine's lifecycle stream (obs/trace.h). Not owned; must outlive the
  /// simulation; nullptr = none.
  TraceSink* lifecycle_sink = nullptr;
  /// Overrides MakeConcurrencyControl(algorithm, victim_policy) when set.
  /// Exists for the verifier's seeded-mutation self-test (src/verify/mutant),
  /// which must prove the oracle catches a deliberately broken algorithm;
  /// production configs leave it empty.
  std::function<std::unique_ptr<ConcurrencyControl>(const EngineConfig&)>
      cc_factory;
};

/// The simulation engine. Owns the workload, resources, and the concurrency
/// control algorithm; drives every transaction through its lifecycle.
class ClosedSystem {
 public:
  ClosedSystem(Simulator* sim, const EngineConfig& config);

  ClosedSystem(const ClosedSystem&) = delete;
  ClosedSystem& operator=(const ClosedSystem&) = delete;

  /// Starts all terminals (each begins with one external think). Call once.
  void Prime();

  /// Runs warmup, then `batches` batches of `batch_length` each, and returns
  /// the measured report. Calls Prime() if not yet primed.
  MetricsReport RunExperiment(int batches, SimTime batch_length, SimTime warmup);

  // --- Introspection (tests, examples, adaptive-mpl extension) ---

  int active_count() const { return active_count_; }
  size_t ready_queue_length() const { return ready_queue_.size(); }
  int64_t total_commits() const { return lifetime_commits_; }
  int64_t total_restarts() const { return lifetime_restarts_; }
  /// Commits by `terminal` so far (the verifier's per-transaction liveness
  /// oracle: every terminal must reach its commit target in every schedule).
  int64_t terminal_commits(int terminal) const {
    return terminal_commits_[static_cast<size_t>(terminal)];
  }
  const ConcurrencyControl& cc() const { return *cc_; }
  ResourceManager& resources() { return resources_; }
  const HistoryRecorder& history() const { return history_; }
  const EngineConfig& config() const { return config_; }
  /// The runtime invariant auditor; nullptr unless config.audit is set.
  const Auditor* auditor() const { return auditor_.get(); }

  /// One-line transaction census ("census: 3 running, 44 blocked, ...") for
  /// watchdog diagnostics: where the population was when a budget tripped.
  std::string DescribeCensus() const;

  /// Committed-response-time running mean in seconds (drives the adaptive
  /// restart delay; exposed for tests and the adaptive-mpl controller).
  double MeanResponseSeconds() const { return restart_policy_.AdaptiveMeanSeconds(); }

  /// Dynamically changes the multiprogramming limit (adaptive-mpl
  /// extension). Raising it admits ready transactions immediately; lowering
  /// it takes effect as active transactions finish.
  void SetMpl(int mpl);
  int mpl() const { return mpl_; }

  /// The observability registry; nullptr unless config.obs.enabled.
  const StatsRegistry* stats_registry() const { return registry_.get(); }

  /// Attaches a heartbeat progress cell (nullptr detaches); the engine
  /// stores lifetime commits into it with relaxed atomics so a reporter
  /// thread can read them (exec/watchdog.h HeartbeatThread).
  void SetProgressCell(ProgressCell* cell) { progress_ = cell; }

  /// End-of-run audit checks: a last transition check, the full scan, and
  /// quiescence (no blocked transaction may outlive the event queue).
  /// RunExperiment calls this itself; the schedule-space verifier calls it
  /// directly on every terminal state it reaches. No-op unless config.audit
  /// is set.
  void AuditFinal();

  /// The full audit scan, reported into `target`: the cc algorithm's deep
  /// AuditCheck, a from-scratch census compared with the maintained state
  /// counts, and the lost-wakeup check over every live transaction. The
  /// engine runs it into its own auditor on the full-scan schedule (see
  /// AuditTransition) and in AuditFinal; the differential audit test runs it
  /// into a second auditor beside the incremental checks. No-op unless
  /// config.audit is set.
  void AuditFullScan(Auditor* target);

  /// Full scans the engine has run into its own auditor so far.
  int64_t audit_full_scans() const { return audit_full_scans_; }

 private:
  enum class TxnState {
    kReady,         ///< In the ready queue (not active).
    kRunning,       ///< Active: issuing requests / in service.
    kBlocked,       ///< Active: waiting for a lock grant.
    kIntThink,      ///< Active: intra-transaction (internal) think.
    kRestartDelay,  ///< Not active: sitting out a restart delay.
  };

  struct Txn {
    TxnId id = kInvalidTxn;
    int terminal = -1;
    TxnSpec spec;
    std::vector<ObjectId> write_set;
    SimTime first_submit = 0;
    SimTime incarnation_start = 0;
    int incarnation = 0;
    TxnState state = TxnState::kReady;
    int read_index = 0;
    int write_index = 0;
    int update_index = 0;
    bool think_done = false;
    bool doomed = false;
    /// A cc grant has fired but its zero-delay resume event has not; in this
    /// window the transaction is still kBlocked yet the algorithm no longer
    /// tracks it as a waiter, so the deep audit must not flag it.
    bool grant_inflight = false;
    /// Granules already covered by a granted cc request this incarnation
    /// (only maintained when lock_granule_size > 1).
    SmallIdSet read_granules;
    SmallIdSet write_granules;
    /// Service and queueing of the current incarnation. cpu and disk are
    /// the useful work credited if this incarnation commits; the whole cost
    /// rides on the kRestarted / kCommitted record.
    IncarnationCost cost;
    /// Pending think / restart-delay event, cancellable on wound.
    EventId pending_event = kInvalidEventId;

    /// Slot-reuse reset (TxnSlotMap recycling): restores the
    /// default-constructed state while keeping every buffer's capacity, so a
    /// terminal's next transaction reuses the previous one's storage.
    void Recycle() {
      id = kInvalidTxn;
      terminal = -1;
      spec.Clear();
      write_set.clear();
      first_submit = 0;
      incarnation_start = 0;
      incarnation = 0;
      state = TxnState::kReady;
      read_index = 0;
      write_index = 0;
      update_index = 0;
      think_done = false;
      doomed = false;
      grant_inflight = false;
      read_granules.clear();
      write_granules.clear();
      cost = IncarnationCost{};
      pending_event = kInvalidEventId;
    }
  };

  /// A cc request for one granule: a read-phase request (in write mode
  /// under x_lock_on_read_intent when the object will be written) or a
  /// write-phase upgrade.
  struct CcRequest {
    ObjectId granule = 0;
    bool write_mode = false;
    bool read_phase = false;
  };

  // Lifecycle.
  void SubmitFromTerminal(int terminal);
  void ScheduleNextArrival();
  void TryActivate();
  void Activate(TxnId id);
  void NextStep(TxnId id);
  void IssueCcRequest(TxnId id);
  void HandleCcRequest(TxnId id);
  /// Counts a cc decision and carries out a block or a restart; true only
  /// for kGranted, when the caller goes on with the request.
  bool ApplyDecision(Txn& txn, CCDecision decision);
  void StartAccess(TxnId id);
  /// CPU half of a read access (after the disk I/O, or directly on a buffer
  /// hit). Split out so resource completions capture five scalars at most
  /// and stay inline on both service paths (res/server_pool.h).
  void StartReadCpu(TxnId id, int incarnation);
  /// Advances past the finished read or write-phase access.
  void AfterAccess(TxnId id, int incarnation);
  void StartInternalThink(TxnId id);
  void BeginUpdates(TxnId id);
  void FlushGroupCommit();
  void NextUpdate(TxnId id);
  void Complete(TxnId id);
  void Restart(TxnId id, RestartCause cause);
  void Deactivate();

  // Concurrency control callbacks.
  void OnGranted(TxnId id);
  void OnWound(TxnId id);

  /// Moves `txn` to `state`: the one writer of Txn::state after admission,
  /// so the per-state counts (and, when auditing, the blocked set) stay
  /// current.
  void SetState(Txn& txn, TxnState state);

  /// Live transactions by state (from the maintained counts), plus the
  /// ready queue and active count. O(1).
  TxnCensus Census() const;
  /// The same census counted from scratch over every live transaction.
  TxnCensus RecountCensus() const;

  // Auditing (no-ops unless config.audit is set).
  /// At every lifecycle transition: monotonicity, the O(1) conservation
  /// check and the cc algorithm's incremental check; every 64th, the
  /// lost-wakeup check over the blocked transactions. Once the transitions
  /// since the last full scan reach the algorithm's AuditScanPeriod (for
  /// lock-table algorithms, the touched-table size), the full scan runs as
  /// well.
  void AuditTransition();
  /// Lost-wakeup check of one transaction: if it is blocked, the algorithm
  /// must still track it as a waiter, unless it is doomed (its abort event
  /// is pending) or its grant's zero-delay resume event is in flight.
  void CheckWaiterTracked(Auditor* target, TxnId id, const Txn& txn) const;
  /// Folds one cc-stream op into the replay digest.
  void AuditFold(AuditOp op, TxnId id, int64_t a, int64_t b);

  // Helpers.
  Txn& GetTxn(TxnId id);
  /// True if the (id, incarnation) pair still denotes a live incarnation.
  bool IsCurrent(TxnId id, int incarnation) const;
  bool NeedsInternalThink(const Txn& txn) const;
  double BootstrapResponseSeconds() const;
  /// Books a finished service request into the cost of `id`'s current
  /// incarnation, which must be `incarnation`: `service` µs into `field`,
  /// and the rest of the time since `requested_at` as queueing.
  void Charge(TxnId id, int incarnation, SimTime IncarnationCost::*field,
              SimTime service, SimTime requested_at);
  /// Hands one lifecycle record to every subscriber; `record` carries the
  /// event's payload, Emit fills in the rest.
  void Emit(const Txn& txn, TxnEvent event, TraceRecord record = {});

  // Observability (config.obs.enabled).
  /// Builds the registry, registers every layer's instruments, and
  /// subscribes the Perfetto tracer (when configured) and the phase/blame
  /// view to the lifecycle stream. Called from the constructor.
  void SetupObservability();
  /// Finishes the sampler CSV/.gp, the trace.json and the hot-granule CSV
  /// (hard error on a failed write). Called at the end of RunExperiment;
  /// idempotent.
  void FinishObsArtifacts();

  /// The cc granule covering `obj`.
  ObjectId GranuleOf(ObjectId obj) const {
    return obj / config_.lock_granule_size;
  }
  /// The cc request the transaction's next step issues; nullopt at the
  /// commit point, whose request is validation.
  std::optional<CcRequest> NextRequest(const Txn& txn) const;
  /// True if the upcoming request's granule is already covered, so the cc
  /// request can be skipped entirely.
  bool GranuleAlreadyCovered(const Txn& txn) const;

  // Measurement.
  void ResetMeasurement();
  void CloseBatch(SimTime batch_length);

  Simulator* sim_;
  EngineConfig config_;
  int mpl_;
  WorkloadGenerator workload_;
  ResourceManager resources_;
  std::unique_ptr<ConcurrencyControl> cc_;
  RestartDelayPolicy restart_policy_;
  Rng delay_rng_;
  Rng arrival_rng_;
  Rng buffer_rng_;

  bool primed_ = false;
  TxnId next_txn_id_ = 1;
  /// Live transactions: ids grow without bound, but at most one per terminal
  /// (kClosed) is alive, so the slot map recycles a bounded set of slots —
  /// and each Txn's buffers with them.
  TxnSlotMap<Txn> txns_;
  RingQueue<TxnId> ready_queue_;
  int active_count_ = 0;
  /// Live transactions per TxnState (indexed by its value).
  std::array<int64_t, 5> state_counts_{};
  TimeWeightedValue active_mpl_;

  /// Batch-window counters; reset at every batch boundary.
  struct BatchWindow {
    int64_t commits = 0;
    int64_t blocks = 0;
    int64_t restarts = 0;
    SimTime useful_cpu = 0;
    SimTime useful_disk = 0;
    Welford response;
  } batch_;

  // Measurement-period accumulators.
  int64_t measured_commits_ = 0;
  int64_t measured_blocks_ = 0;
  int64_t measured_restarts_ = 0;
  Welford measured_response_;
  /// Response-time distribution for percentile reporting (0.1 s resolution
  /// up to 10 minutes; the overflow share is reported alongside).
  Histogram measured_response_hist_{0.0, 600.0, 6000};
  /// Per-class accumulators (single entry for single-class workloads).
  std::vector<Welford> class_response_;
  std::vector<int64_t> class_commits_;
  std::vector<int64_t> class_restarts_;

  // Lifetime counters (include warmup).
  int64_t lifetime_commits_ = 0;
  int64_t lifetime_restarts_ = 0;
  /// Lifetime commits per terminal (kClosed) — the liveness oracle's view.
  std::vector<int64_t> terminal_commits_;

  /// Batch-means estimators over the measurement period.
  struct Estimators {
    BatchMeans throughput, response, block_ratio, restart_ratio;
    BatchMeans disk_total, disk_useful, cpu_total, cpu_useful, log;
  } bm_;

  HistoryRecorder history_;
  std::unique_ptr<Auditor> auditor_;
  /// Transitions since the last full scan, and full scans run.
  int64_t audit_transitions_ = 0;
  int64_t audit_full_scans_ = 0;
  /// Transactions in kBlocked, kept only when auditing: the periodic
  /// lost-wakeup check walks these instead of every transaction.
  SmallIdSet audit_blocked_;

  /// Lifecycle-stream subscribers, in emit order: config.lifecycle_sink,
  /// perfetto_, obs_. Fixed at construction, except that perfetto_ leaves
  /// when its trace file is finished.
  std::vector<TraceSink*> subscribers_;
  // Observability (all null when config.obs.enabled is false).
  std::unique_ptr<StatsRegistry> registry_;
  std::unique_ptr<LifecycleStats> obs_;
  std::unique_ptr<TraceEventWriter> trace_writer_;
  std::unique_ptr<EngineTracer> perfetto_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
  ProgressCell* progress_ = nullptr;

  /// Transactions whose commit records await the next group-commit flush
  /// (id, incarnation); the window timer is pending_group_flush_.
  std::vector<std::pair<TxnId, int>> group_commit_queue_;
  EventId pending_group_flush_ = kInvalidEventId;

  /// Predeclared read and write granules, rebuilt at every predeclaring
  /// activation (capacity kept, so the steady state allocates nothing).
  std::vector<ObjectId> predeclared_reads_;
  std::vector<ObjectId> predeclared_writes_;
};

}  // namespace ccsim

#endif  // CCSIM_CORE_CLOSED_SYSTEM_H_
