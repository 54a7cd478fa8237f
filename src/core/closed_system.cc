#include "core/closed_system.h"

#include <algorithm>
#include <utility>

#include "sim/choice.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/str.h"

namespace ccsim {

namespace {

/// The engine's random streams are derived from the master seed in a fixed
/// order (0 = workload specs, 1 = think times, 2 = disk choice, 3 = restart
/// delays), so runs are a pure function of the seed.
Rng NthStream(uint64_t seed, int n) {
  RngFactory factory(seed);
  Rng stream = factory.MakeStream();
  for (int i = 0; i < n; ++i) stream = factory.MakeStream();
  return stream;
}

}  // namespace

ClosedSystem::ClosedSystem(Simulator* sim, const EngineConfig& config)
    : sim_(sim),
      config_(config),
      mpl_(config.workload.mpl),
      workload_(config.workload, NthStream(config.seed, 0),
                NthStream(config.seed, 1)),
      resources_(sim, config.resources,
                 NthStream(config.seed, 2)),
      cc_(config.cc_factory
              ? config.cc_factory(config)
              : MakeConcurrencyControl(config.algorithm,
                                       config.victim_policy)),
      restart_policy_(
          config.restart_delay_mode.value_or(
              DefaultRestartDelayMode(config.algorithm)),
          config.fixed_restart_delay, BootstrapResponseSeconds()),
      delay_rng_(NthStream(config.seed, 3)),
      arrival_rng_(NthStream(config.seed, 4)),
      buffer_rng_(NthStream(config.seed, 5)),
      active_mpl_(sim->Now()) {
  if (config_.source_mode == SourceMode::kOpen) {
    CCSIM_CHECK_GT(config_.arrival_rate, 0.0)
        << "open-system mode requires a positive arrival_rate";
  }
  // Static write locking replaces the read request with a write request; the
  // timestamp-ordering algorithms derive read protection from the read
  // request itself, so the combination would silently weaken them.
  if (config_.x_lock_on_read_intent) {
    CCSIM_CHECK(config_.algorithm != "basic_to" && config_.algorithm != "mvto")
        << "x_lock_on_read_intent is not supported for timestamp ordering";
  }
  if (NeedsRestartDelay(config_.algorithm)) {
    CCSIM_CHECK(restart_policy_.mode() != RestartDelayMode::kNone)
        << config_.algorithm
        << " requires a restart delay (fixed or adaptive)";
  }
  CCSIM_CHECK_GE(config_.lock_granule_size, 1);
  // Capacity hint: lockable granule count + transaction population, so the
  // algorithm's tables never rehash in steady state.
  cc_->ReserveCapacity(
      (config_.workload.db_size + config_.lock_granule_size - 1) /
          config_.lock_granule_size,
      config_.workload.mpl);
  // Live-transaction hint: at most one per terminal (kClosed) plus the mpl
  // headroom; open mode grows past the hint amortized.
  txns_.Reserve(static_cast<size_t>(
      std::max(config_.workload.num_terms, config_.workload.mpl)));
  // The closed model's ready queue never holds more than one transaction
  // per terminal; open mode grows it amortized.
  ready_queue_.Reserve(
      static_cast<size_t>(std::max(config_.workload.num_terms, 1)));
  terminal_commits_.assign(
      static_cast<size_t>(std::max(config_.workload.num_terms, 1)), 0);
  class_response_.resize(static_cast<size_t>(config_.workload.ClassCount()));
  class_commits_.assign(class_response_.size(), 0);
  class_restarts_.assign(class_response_.size(), 0);
  CCCallbacks callbacks{
      [this](TxnId id) { OnGranted(id); },
      [this](TxnId id) { OnWound(id); },
      [this]() { return sim_->Now(); },
      nullptr,
      nullptr,
  };
  if (config_.record_history) {
    callbacks.on_version_read = [this](TxnId id, ObjectId obj, TxnId writer) {
      history_.RecordVersionRead(id, GetTxn(id).incarnation, obj, writer);
    };
  }
  if (config_.obs.enabled) {
    callbacks.on_blame = [this](TxnId victim, TxnId opponent, ObjectId obj,
                                BlameKind kind) {
      obs_->OnBlame(victim, opponent, obj, kind);
    };
  }
  cc_->SetCallbacks(std::move(callbacks));
  if (config_.audit) {
    auditor_ = std::make_unique<Auditor>(AuditorOptions{},
                                         [this] { return sim_->Now(); });
    cc_->SetAuditor(auditor_.get());
    // Blocked transactions are active, so the mpl bounds them.
    audit_blocked_.reserve(static_cast<size_t>(config_.workload.mpl));
  }
  if (config_.lifecycle_sink != nullptr) {
    subscribers_.push_back(config_.lifecycle_sink);
  }
  SetupObservability();
}

void ClosedSystem::SetupObservability() {
  if (!config_.obs.enabled) return;
  // Direct construction (tests, examples) may carry unresolved directory
  // fields; the experiment runner resolves per-point paths up front, in
  // which case this is a no-op.
  ResolveObsPaths(&config_.obs, config_.algorithm, config_.workload.mpl,
                  config_.seed);

  registry_ = std::make_unique<StatsRegistry>();
  // Engine gauges: the population split the paper's dynamics arguments are
  // about. Gauges are evaluated only when the sampler fires.
  registry_->AddGauge("ready_queue", [this] {
    return static_cast<double>(Census().ready_queue);
  });
  registry_->AddGauge("active", [this] {
    return static_cast<double>(Census().active);
  });
  registry_->AddGauge("blocked", [this] {
    return static_cast<double>(Census().blocked);
  });
  registry_->AddGauge("thinking", [this] {
    return static_cast<double>(Census().thinking);
  });
  registry_->AddGauge("restart_delay", [this] {
    return static_cast<double>(Census().restart_delay);
  });
  // Then the lifecycle view's instruments, the algorithm's own (lock-table
  // occupancy, deadlock searches, cycle lengths, ...) and the resources'.
  obs_ = std::make_unique<LifecycleStats>(
      registry_.get(), &cc_->stats(),
      static_cast<size_t>(
          std::max(config_.workload.num_terms, config_.workload.mpl)));
  cc_->RegisterStats(registry_.get());
  resources_.RegisterStats(registry_.get());

  if (config_.obs.TracingOn()) {
    CCSIM_CHECK(!config_.obs.trace_path.empty())
        << "tracing requested but no trace_path/trace_dir configured";
    trace_writer_ = std::make_unique<TraceEventWriter>(config_.obs.trace_path);
    CCSIM_CHECK(trace_writer_->ok())
        << "cannot open trace file " << config_.obs.trace_path;
    perfetto_ =
        std::make_unique<EngineTracer>(trace_writer_.get(), obs_.get());
    resources_.AttachSpanSink(perfetto_.get());
    subscribers_.push_back(perfetto_.get());
  }
  subscribers_.push_back(obs_.get());
}

double ClosedSystem::BootstrapResponseSeconds() const {
  const WorkloadParams& w = config_.workload;
  double reads = static_cast<double>(w.tran_size);
  double writes = reads * w.write_prob;
  double seconds = reads * ToSeconds(w.obj_io + w.obj_cpu) +
                   writes * ToSeconds(w.obj_cpu + w.obj_io) +
                   ToSeconds(w.int_think_time);
  return seconds > 0 ? seconds : 1.0;
}

void ClosedSystem::Prime() {
  CCSIM_CHECK(!primed_) << "Prime() called twice";
  primed_ = true;
  if (registry_ != nullptr && config_.obs.SamplingOn()) {
    CCSIM_CHECK(!config_.obs.sample_path.empty())
        << "sampling requested but no sample_path/sample_dir configured";
    sampler_ = std::make_unique<TimeSeriesSampler>(
        sim_, registry_.get(), config_.obs.sample_path,
        config_.obs.sample_interval);
    CCSIM_CHECK(sampler_->ok())
        << "cannot open time-series csv " << config_.obs.sample_path;
    sampler_->Start();
  }
  if (config_.source_mode == SourceMode::kOpen) {
    ScheduleNextArrival();
    return;
  }
  for (int terminal = 0; terminal < config_.workload.num_terms; ++terminal) {
    SimTime think = workload_.NextExternalThink();
    sim_->Schedule(think, [this, terminal] { SubmitFromTerminal(terminal); });
  }
}

void ClosedSystem::ScheduleNextArrival() {
  SimTime gap = FromSeconds(arrival_rng_.Exponential(1.0 / config_.arrival_rate));
  sim_->Schedule(gap, [this] {
    ScheduleNextArrival();
    SubmitFromTerminal(/*terminal=*/-1);
  });
}

void ClosedSystem::SubmitFromTerminal(int terminal) {
  TxnId id = next_txn_id_++;
  // Insert recycles a retired transaction's slot, so the new transaction
  // inherits its buffers' capacity.
  Txn& txn = txns_.Insert(id);
  txn.id = id;
  txn.terminal = terminal;
  workload_.NextTransaction(&txn.spec, &txn.write_set);
  txn.first_submit = sim_->Now();
  // Insert hands out a fresh or recycled slot, in kReady.
  ++state_counts_[static_cast<size_t>(TxnState::kReady)];
  Emit(txn, TxnEvent::kSubmitted);
  ready_queue_.PushBack(id);
  TryActivate();
}

void ClosedSystem::TryActivate() {
  while (active_count_ < mpl_ && !ready_queue_.empty()) {
    size_t pick = 0;
    // Verifier hook: admission is FIFO by default, but any queued transaction
    // could plausibly be admitted next in a real system; offer the first few.
    if (ActiveChoicePoint() != nullptr && ready_queue_.size() > 1) {
      constexpr size_t kMaxReadyAlternatives = 6;
      uint64_t signatures[kMaxReadyAlternatives];
      size_t count = std::min<size_t>(ready_queue_.size(),
                                      kMaxReadyAlternatives);
      for (size_t i = 0; i < count; ++i) {
        signatures[i] = static_cast<uint64_t>(ready_queue_[i]);
      }
      pick = static_cast<size_t>(
          MaybeChoose("ready.pick", signatures, static_cast<int>(count)));
    }
    Activate(ready_queue_.EraseAt(pick));
  }
}

void ClosedSystem::Activate(TxnId id) {
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kReady);
  SetState(txn, TxnState::kRunning);
  txn.incarnation += 1;
  txn.incarnation_start = sim_->Now();
  txn.read_index = 0;
  txn.write_index = 0;
  txn.update_index = 0;
  txn.think_done = false;
  txn.doomed = false;
  txn.grant_inflight = false;
  txn.cost = IncarnationCost{};
  txn.read_granules.clear();
  txn.write_granules.clear();
  ++active_count_;
  active_mpl_.Add(sim_->Now(), +1.0);
  if (config_.record_history) history_.RecordActivation(id, txn.incarnation);
  Emit(txn, TxnEvent::kActivated);
  if (auditor_ != nullptr) {
    auditor_->OnTxnAdmitted(id, txn.incarnation);
    AuditFold(AuditOp::kBegin, id, txn.incarnation, 0);
  }
  cc_->OnBegin(id, txn.first_submit, txn.incarnation_start);
  if (cc_->needs_predeclaration()) {
    auto granules_of = [this](const std::vector<ObjectId>& objects,
                              std::vector<ObjectId>* granules) {
      granules->clear();
      for (ObjectId obj : objects) {
        ObjectId granule = GranuleOf(obj);
        if (std::find(granules->begin(), granules->end(), granule) ==
            granules->end()) {
          granules->push_back(granule);
        }
      }
    };
    granules_of(txn.spec.reads, &predeclared_reads_);
    granules_of(txn.write_set, &predeclared_writes_);
    CCDecision decision =
        cc_->Predeclare(id, predeclared_reads_, predeclared_writes_);
    AuditFold(AuditOp::kPredeclare, id, static_cast<int64_t>(decision),
              static_cast<int64_t>(predeclared_reads_.size() +
                                   predeclared_writes_.size()));
    if (!ApplyDecision(txn, decision)) return;
  }
  NextStep(id);
}

void ClosedSystem::NextStep(TxnId id) {
  AuditTransition();
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRunning);
  if (txn.doomed) {
    Restart(id, RestartCause::kWound);
    return;
  }
  if (txn.read_index < txn.spec.num_reads()) {
    if (GranuleAlreadyCovered(txn)) {
      StartAccess(id);
    } else {
      IssueCcRequest(id);
    }
    return;
  }
  if (NeedsInternalThink(txn)) {
    StartInternalThink(id);
    return;
  }
  if (txn.write_index < static_cast<int>(txn.write_set.size())) {
    if (GranuleAlreadyCovered(txn)) {
      StartAccess(id);
    } else {
      IssueCcRequest(id);
    }
    return;
  }
  // Commit point: validation request.
  IssueCcRequest(id);
}

bool ClosedSystem::NeedsInternalThink(const Txn& txn) const {
  return config_.workload.int_think_time > 0 && !txn.think_done &&
         txn.read_index >= txn.spec.num_reads();
}

std::optional<ClosedSystem::CcRequest> ClosedSystem::NextRequest(
    const Txn& txn) const {
  if (txn.read_index < txn.spec.num_reads()) {
    const auto i = static_cast<size_t>(txn.read_index);
    // Under static write locking, a to-be-written object is requested in
    // write mode up front instead of read-locked and upgraded later.
    return CcRequest{GranuleOf(txn.spec.reads[i]),
                     config_.x_lock_on_read_intent && txn.spec.writes[i],
                     /*read_phase=*/true};
  }
  if (txn.write_index < static_cast<int>(txn.write_set.size())) {
    return CcRequest{
        GranuleOf(txn.write_set[static_cast<size_t>(txn.write_index)]),
        /*write_mode=*/true, /*read_phase=*/false};
  }
  return std::nullopt;
}

bool ClosedSystem::GranuleAlreadyCovered(const Txn& txn) const {
  if (config_.lock_granule_size <= 1) return false;
  const std::optional<CcRequest> request = NextRequest(txn);
  if (!request) return false;  // The validation request is always issued.
  if (txn.write_granules.count(request->granule) > 0) return true;
  return !request->write_mode && txn.read_granules.count(request->granule) > 0;
}

void ClosedSystem::IssueCcRequest(TxnId id) {
  Txn& txn = GetTxn(id);
  SimTime cc_cpu = config_.workload.cc_cpu;
  if (cc_cpu > 0) {
    int incarnation = txn.incarnation;
    SimTime req_at = sim_->Now();
    resources_.RequestCpu(cc_cpu, ServicePriority::kConcurrencyControl,
                          [this, id, incarnation, cc_cpu, req_at] {
                            Charge(id, incarnation, &IncarnationCost::cpu,
                                   cc_cpu, req_at);
                            HandleCcRequest(id);
                          });
    return;
  }
  HandleCcRequest(id);
}

void ClosedSystem::HandleCcRequest(TxnId id) {
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRunning);
  if (txn.doomed) {
    Restart(id, RestartCause::kWound);
    return;
  }
  const std::optional<CcRequest> request = NextRequest(txn);
  if (!request) {
    // Validation at the commit point.
    bool valid = cc_->Validate(id);
    AuditFold(AuditOp::kValidate, id, valid ? 1 : 0, 0);
    if (valid) {
      BeginUpdates(id);
    } else {
      Restart(id, RestartCause::kValidation);
    }
    return;
  }
  const ObjectId granule = request->granule;
  CCDecision decision = request->write_mode ? cc_->WriteRequest(id, granule)
                                            : cc_->ReadRequest(id, granule);
  AuditFold(request->write_mode ? AuditOp::kWrite : AuditOp::kRead, id,
            granule, static_cast<int64_t>(decision));
  if (!ApplyDecision(txn, decision)) return;
  if (config_.lock_granule_size > 1) {
    (request->write_mode ? txn.write_granules : txn.read_granules)
        .insert(granule);
  }
  // History records the read at the grant, not after the read I/O lands:
  // the grant is the instant the cc algorithm fixes which version this read
  // observes. Recording after the I/O would let a newer writer commit (and
  // record its writes) inside the lag, and the conflict checker would
  // misorder the pair.
  if (config_.record_history && request->read_phase) {
    history_.RecordRead(id, txn.incarnation, granule, sim_->Now());
  }
  StartAccess(id);
}

bool ClosedSystem::ApplyDecision(Txn& txn, CCDecision decision) {
  if (obs_ != nullptr) obs_->CountDecision(decision);
  switch (decision) {
    case CCDecision::kGranted:
      return true;
    case CCDecision::kBlocked:
      SetState(txn, TxnState::kBlocked);
      ++batch_.blocks;
      ++measured_blocks_;
      Emit(txn, TxnEvent::kBlocked);
      // The algorithm must now track the transaction as a waiter.
      if (auditor_ != nullptr) {
        auditor_->CheckBlockedTracked(txn.id, cc_->AuditTracksWaiter(txn.id));
      }
      return false;
    case CCDecision::kRestart:
      Restart(txn.id, RestartCause::kDecision);
      return false;
  }
  return false;
}

void ClosedSystem::StartAccess(TxnId id) {
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRunning);
  const WorkloadParams& w = config_.workload;
  int incarnation = txn.incarnation;

  if (txn.read_index < txn.spec.num_reads()) {
    // Read: obj_io on a random disk, then obj_cpu. Completions capture five
    // scalars at most (never the whole WorkloadParams): 40 bytes, which fit
    // the ServiceCompletion slot buffer — so an access never touches the
    // heap (pinned by tests/engine_alloc_test.cc).
    // Buffer-pool model: a read may hit the buffer and skip the disk.
    bool buffer_hit = w.buffer_hit_prob > 0.0 &&
                      buffer_rng_.Bernoulli(w.buffer_hit_prob);
    if (w.obj_io > 0 && !buffer_hit) {
      SimTime obj_io = w.obj_io;
      SimTime req_at = sim_->Now();
      resources_.RequestDisk(obj_io, [this, id, incarnation, obj_io, req_at] {
        Charge(id, incarnation, &IncarnationCost::disk, obj_io, req_at);
        StartReadCpu(id, incarnation);
      });
    } else {
      StartReadCpu(id, incarnation);
    }
    return;
  }

  // Write request: obj_cpu only; the physical write is deferred to commit.
  if (w.obj_cpu > 0) {
    SimTime obj_cpu = w.obj_cpu;
    SimTime req_at = sim_->Now();
    resources_.RequestCpu(obj_cpu, ServicePriority::kNormal,
                          [this, id, incarnation, obj_cpu, req_at] {
                            Charge(id, incarnation, &IncarnationCost::cpu,
                                   obj_cpu, req_at);
                            AfterAccess(id, incarnation);
                          });
  } else {
    AfterAccess(id, incarnation);
  }
}

void ClosedSystem::StartReadCpu(TxnId id, int incarnation) {
  CCSIM_CHECK(IsCurrent(id, incarnation));
  SimTime obj_cpu = config_.workload.obj_cpu;
  if (obj_cpu > 0) {
    SimTime req_at = sim_->Now();
    resources_.RequestCpu(obj_cpu, ServicePriority::kNormal,
                          [this, id, incarnation, obj_cpu, req_at] {
                            Charge(id, incarnation, &IncarnationCost::cpu,
                                   obj_cpu, req_at);
                            AfterAccess(id, incarnation);
                          });
  } else {
    AfterAccess(id, incarnation);
  }
}

void ClosedSystem::AfterAccess(TxnId id, int incarnation) {
  CCSIM_CHECK(IsCurrent(id, incarnation));
  Txn& txn = GetTxn(id);
  // A read was already recorded in the history at its cc grant
  // (HandleCcRequest).
  ++(txn.read_index < txn.spec.num_reads() ? txn.read_index
                                           : txn.write_index);
  NextStep(id);
}

void ClosedSystem::StartInternalThink(TxnId id) {
  Txn& txn = GetTxn(id);
  SetState(txn, TxnState::kIntThink);
  const SimTime think = workload_.NextInternalThink();
  Emit(txn, TxnEvent::kInternalThink, {.think = think});
  int incarnation = txn.incarnation;
  txn.pending_event = sim_->Schedule(think, [this, id, incarnation] {
    CCSIM_CHECK(IsCurrent(id, incarnation));
    Txn& t = GetTxn(id);
    CCSIM_CHECK(t.state == TxnState::kIntThink);
    t.pending_event = kInvalidEventId;
    t.think_done = true;
    SetState(t, TxnState::kRunning);
    NextStep(id);
  });
}

void ClosedSystem::BeginUpdates(TxnId id) {
  Txn& txn = GetTxn(id);
  txn.update_index = 0;
  // Recovery extension: update transactions force a commit log record to the
  // dedicated log disk before applying their deferred updates.
  const WorkloadParams& w = config_.workload;
  if (w.log_io > 0 && !txn.write_set.empty()) {
    int incarnation = txn.incarnation;
    if (config_.group_commit_window > 0) {
      // Group commit: join the current batch; the first joiner arms the
      // window timer that flushes everyone with one log write.
      group_commit_queue_.emplace_back(id, incarnation);
      if (group_commit_queue_.size() == 1) {
        pending_group_flush_ = sim_->Schedule(
            config_.group_commit_window, [this] { FlushGroupCommit(); });
      }
      return;
    }
    SimTime log_io = w.log_io;
    SimTime req_at = sim_->Now();
    resources_.RequestLog(log_io, [this, id, incarnation, log_io, req_at] {
      Charge(id, incarnation, &IncarnationCost::log, log_io, req_at);
      NextUpdate(id);
    });
    return;
  }
  NextUpdate(id);
}

void ClosedSystem::FlushGroupCommit() {
  pending_group_flush_ = kInvalidEventId;
  std::vector<std::pair<TxnId, int>> batch = std::move(group_commit_queue_);
  group_commit_queue_.clear();
  if (batch.empty()) return;
  resources_.RequestLog(config_.workload.log_io,
                        [this, batch = std::move(batch)] {
    for (const auto& [id, incarnation] : batch) {
      // A batch member may have been wounded and restarted while waiting;
      // its incarnation guard skips it (the doomed path aborts elsewhere).
      if (!IsCurrent(id, incarnation)) continue;
      NextUpdate(id);
    }
  });
}

void ClosedSystem::NextUpdate(TxnId id) {
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRunning);
  if (txn.doomed) {
    Restart(id, RestartCause::kWound);
    return;
  }
  if (txn.update_index >= static_cast<int>(txn.write_set.size())) {
    Complete(id);
    return;
  }
  const WorkloadParams& w = config_.workload;
  int incarnation = txn.incarnation;
  if (w.obj_io > 0) {
    SimTime obj_io = w.obj_io;
    SimTime req_at = sim_->Now();
    resources_.RequestDisk(obj_io, [this, id, incarnation, obj_io, req_at] {
      Charge(id, incarnation, &IncarnationCost::disk, obj_io, req_at);
      ++GetTxn(id).update_index;
      NextUpdate(id);
    });
  } else {
    ++txn.update_index;
    NextUpdate(id);
  }
}

void ClosedSystem::Complete(TxnId id) {
  Txn& txn = GetTxn(id);
  if (txn.doomed) {
    Restart(id, RestartCause::kWound);
    return;
  }
  double response = ToSeconds(sim_->Now() - txn.first_submit);
  restart_policy_.RecordResponse(response);
  batch_.response.Add(response);
  measured_response_.Add(response);
  measured_response_hist_.Add(response);
  auto class_index = static_cast<size_t>(txn.spec.class_index);
  class_response_[class_index].Add(response);
  ++class_commits_[class_index];
  ++batch_.commits;
  ++measured_commits_;
  ++lifetime_commits_;
  if (txn.terminal >= 0 &&
      txn.terminal < static_cast<int>(terminal_commits_.size())) {
    ++terminal_commits_[static_cast<size_t>(txn.terminal)];
  }
  batch_.useful_cpu += txn.cost.cpu;
  batch_.useful_disk += txn.cost.disk;
  if (progress_ != nullptr) {
    progress_->commits.store(lifetime_commits_, std::memory_order_relaxed);
  }

  // History records deferred writes at commit, when they become visible, not
  // when the update I/O physically lands. Algorithms that let an *older*
  // reader proceed past a newer transaction's pending write (e.g. basic T/O,
  // where such a read legitimately returns the still-committed value) would
  // otherwise produce apply-before-read op sequences that the single-version
  // conflict checker misreads as writer-before-reader edges — false cycles in
  // a perfectly serializable execution. Writes must land before cc_->Commit:
  // publishing wakes waiting readers synchronously, and their reads of the
  // new value have to sequence after the writes they observe.
  if (config_.record_history) {
    for (ObjectId obj : txn.write_set) {
      history_.RecordWrite(id, txn.incarnation, GranuleOf(obj), sim_->Now());
    }
  }
  cc_->Commit(id);
  if (config_.record_history) history_.RecordCommit(id, txn.incarnation);
  Emit(txn, TxnEvent::kCommitted, {.cost = txn.cost});
  if (auditor_ != nullptr) {
    AuditFold(AuditOp::kCommit, id, txn.incarnation, 0);
    auditor_->OnTxnFinished(id);
  }

  int terminal = txn.terminal;
  Deactivate();
  --state_counts_[static_cast<size_t>(txn.state)];
  txns_.Erase(id);

  if (config_.source_mode == SourceMode::kClosed) {
    SimTime think = workload_.NextExternalThink();
    sim_->Schedule(think, [this, terminal] { SubmitFromTerminal(terminal); });
  }
  TryActivate();
  AuditTransition();
}

void ClosedSystem::Restart(TxnId id, RestartCause cause) {
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRunning ||
              txn.state == TxnState::kBlocked ||
              txn.state == TxnState::kIntThink);
  if (txn.pending_event != kInvalidEventId) {
    sim_->Cancel(txn.pending_event);
    txn.pending_event = kInvalidEventId;
  }
  ++batch_.restarts;
  ++measured_restarts_;
  ++lifetime_restarts_;
  ++class_restarts_[static_cast<size_t>(txn.spec.class_index)];
  // Drawn ahead of the re-entry below because the kRestarted record
  // carries it.
  const SimTime delay = restart_policy_.NextDelay(&delay_rng_);
  Emit(txn, TxnEvent::kRestarted,
       {.cause = cause, .restart_delay = delay, .cost = txn.cost});

  cc_->Abort(id);
  if (config_.record_history) history_.RecordAbort(id, txn.incarnation);
  if (auditor_ != nullptr) {
    AuditFold(AuditOp::kRestart, id, txn.incarnation, 0);
    auditor_->OnTxnFinished(id);
  }
  Deactivate();

  // Re-entry always goes through an event, even at zero delay. A synchronous
  // re-entry could recurse Restart -> Activate -> conflict -> Restart inside
  // a single event: a zero-delay restart spin (e.g. immediate restart with a
  // conflicting replay and no delay) would then livelock *inside* one event,
  // where neither the event budget nor the wall-clock watchdog (both checked
  // between events, sim/simulator.h RunGuard) could ever interrupt it.
  SetState(txn, TxnState::kRestartDelay);
  int incarnation = txn.incarnation;
  txn.pending_event = sim_->Schedule(delay, [this, id, incarnation] {
    CCSIM_CHECK(IsCurrent(id, incarnation));
    Txn& t = GetTxn(id);
    CCSIM_CHECK(t.state == TxnState::kRestartDelay);
    t.pending_event = kInvalidEventId;
    SetState(t, TxnState::kReady);
    ready_queue_.PushBack(id);
    TryActivate();
  });
  AuditTransition();
}

void ClosedSystem::Deactivate() {
  --active_count_;
  CCSIM_CHECK_GE(active_count_, 0);
  active_mpl_.Add(sim_->Now(), -1.0);
}

void ClosedSystem::OnGranted(TxnId id) {
  // Defer to a zero-delay event: grants arrive from inside cc calls and the
  // engine must not re-enter its own state machine mid-call.
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kBlocked);
  txn.grant_inflight = true;
  int incarnation = txn.incarnation;
  sim_->Schedule(0, [this, id, incarnation] {
    if (!IsCurrent(id, incarnation)) return;  // Restarted meanwhile.
    Txn& t = GetTxn(id);
    t.grant_inflight = false;
    if (t.state != TxnState::kBlocked) return;  // Stale grant.
    SetState(t, TxnState::kRunning);
    Emit(t, TxnEvent::kResumed);
    AuditTransition();
    if (t.doomed) {
      Restart(id, RestartCause::kWound);
      return;
    }
    // Re-issue the pending request rather than assume a grant: for lock
    // algorithms the re-request is idempotently granted (the waiter now
    // holds the lock), while timestamp algorithms re-run their checks and
    // may block again or restart.
    HandleCcRequest(id);
  });
}

void ClosedSystem::OnWound(TxnId id) {
  Txn& txn = GetTxn(id);
  CCSIM_CHECK(txn.state == TxnState::kRunning ||
              txn.state == TxnState::kBlocked ||
              txn.state == TxnState::kIntThink)
      << "wound target must be active";
  if (txn.doomed) return;  // Already doomed; nothing more to do.
  txn.doomed = true;
  // A blocked or thinking victim has no service completion that would notice
  // the doom flag; abort it via a zero-delay event. A running victim aborts
  // at its next engine step.
  if (txn.state == TxnState::kBlocked || txn.state == TxnState::kIntThink) {
    int incarnation = txn.incarnation;
    sim_->Schedule(0, [this, id, incarnation] {
      if (!IsCurrent(id, incarnation)) return;
      Txn& t = GetTxn(id);
      if (!t.doomed) return;
      if (t.state != TxnState::kBlocked && t.state != TxnState::kIntThink) {
        return;  // Resumed meanwhile; doom executes at the next step.
      }
      Restart(id, RestartCause::kWound);
    });
  }
}

void ClosedSystem::SetState(Txn& txn, TxnState state) {
  --state_counts_[static_cast<size_t>(txn.state)];
  ++state_counts_[static_cast<size_t>(state)];
  if (auditor_ != nullptr) {
    if (txn.state == TxnState::kBlocked) audit_blocked_.erase(txn.id);
    if (state == TxnState::kBlocked) audit_blocked_.insert(txn.id);
  }
  txn.state = state;
}

void ClosedSystem::CheckWaiterTracked(Auditor* target, TxnId id,
                                      const Txn& txn) const {
  if (txn.state == TxnState::kBlocked && !txn.doomed && !txn.grant_inflight) {
    target->CheckBlockedTracked(id, cc_->AuditTracksWaiter(id));
  }
}

namespace {
/// Transitions between two lost-wakeup checks of the blocked transactions.
/// Under high contention most of the population is blocked, so walking it at
/// every transition would cost more than everything else the audit does.
constexpr int64_t kLostWakeupCheckPeriod = 64;
}  // namespace

void ClosedSystem::AuditTransition() {
  if (auditor_ == nullptr) return;
  auditor_->OnEventTime(sim_->Now());
  auditor_->CheckConservation(Census());
  if (++audit_transitions_ % kLostWakeupCheckPeriod == 0) {
    for (TxnId id : audit_blocked_) {
      CheckWaiterTracked(auditor_.get(), id, GetTxn(id));
    }
  }
  cc_->AuditChanges();
  if (audit_transitions_ >= static_cast<int64_t>(cc_->AuditScanPeriod())) {
    AuditFullScan(auditor_.get());
  }
}

void ClosedSystem::AuditFullScan(Auditor* target) {
  if (auditor_ == nullptr) return;
  if (target == auditor_.get()) {
    audit_transitions_ = 0;
    ++audit_full_scans_;
    cc_->AuditCheck();
  } else {
    // The algorithm reports into the auditor attached to it.
    cc_->SetAuditor(target);
    cc_->AuditCheck();
    cc_->SetAuditor(auditor_.get());
  }
  target->CheckRecount(Census(), RecountCensus());
  txns_.ForEach([&](TxnId id, const Txn& txn) {
    CheckWaiterTracked(target, id, txn);
  });
}

void ClosedSystem::AuditFold(AuditOp op, TxnId id, int64_t a, int64_t b) {
  if (auditor_ == nullptr) return;
  auditor_->FoldOp(static_cast<uint64_t>(op), id, a, b,
                   static_cast<int64_t>(sim_->Now()));
}

void ClosedSystem::AuditFinal() {
  if (auditor_ == nullptr) return;
  AuditTransition();
  AuditFullScan(auditor_.get());
  // Quiescence: with the event queue drained nothing can ever wake a
  // blocked transaction again — each one is permanently stuck.
  if (sim_->pending_events() == 0) {
    std::vector<TxnId> stuck;
    txns_.ForEach([&](TxnId id, const Txn& txn) {
      if (txn.state == TxnState::kBlocked) stuck.push_back(id);
    });
    std::sort(stuck.begin(), stuck.end());
    for (TxnId id : stuck) {
      auditor_->Report(AuditInvariant::kPermanentBlock, id,
                       "blocked transaction outlived the event queue");
    }
  }
}

ClosedSystem::Txn& ClosedSystem::GetTxn(TxnId id) {
  Txn* txn = txns_.Find(id);
  CCSIM_CHECK(txn != nullptr) << "unknown txn " << id;
  return *txn;
}


void ClosedSystem::Emit(const Txn& txn, TxnEvent event, TraceRecord record) {
  if (subscribers_.empty()) return;
  record.time = sim_->Now();
  record.txn = txn.id;
  record.incarnation = txn.incarnation;
  record.event = event;
  for (TraceSink* subscriber : subscribers_) subscriber->Record(record);
}

void ClosedSystem::Charge(TxnId id, int incarnation,
                          SimTime IncarnationCost::*field, SimTime service,
                          SimTime requested_at) {
  CCSIM_CHECK(IsCurrent(id, incarnation));
  IncarnationCost& cost = GetTxn(id).cost;
  cost.*field += service;
  // Whatever elapsed beyond pure service time was spent queued for the
  // resource (FCFS server pools, res/server_pool.h).
  cost.queued += (sim_->Now() - requested_at) - service;
}

void ClosedSystem::FinishObsArtifacts() {
  if (sampler_ != nullptr) {
    CCSIM_CHECK(sampler_->Finish())
        << "failed writing time-series csv " << config_.obs.sample_path;
    sampler_.reset();
  }
  if (perfetto_ != nullptr) {
    perfetto_->FlushOpen(sim_->Now());
    resources_.AttachSpanSink(nullptr);
    std::erase(subscribers_, perfetto_.get());
    perfetto_.reset();
    CCSIM_CHECK(trace_writer_->Finish())
        << "failed writing trace file " << config_.obs.trace_path;
    trace_writer_.reset();
  }
  if (obs_ != nullptr && !config_.obs.hot_path.empty()) {
    CCSIM_CHECK(obs_->WriteHotCsv(config_.obs.hot_path))
        << "failed writing hot-granule csv " << config_.obs.hot_path;
  }
}

bool ClosedSystem::IsCurrent(TxnId id, int incarnation) const {
  const Txn* txn = txns_.Find(id);
  return txn != nullptr && txn->incarnation == incarnation;
}

void ClosedSystem::SetMpl(int new_mpl) {
  CCSIM_CHECK_GE(new_mpl, 1);
  mpl_ = new_mpl;
  TryActivate();
}

void ClosedSystem::ResetMeasurement() {
  batch_ = BatchWindow{};
  measured_commits_ = 0;
  measured_blocks_ = 0;
  measured_restarts_ = 0;
  measured_response_.Reset();
  measured_response_hist_ = Histogram(0.0, 600.0, 6000);
  for (Welford& response : class_response_) response.Reset();
  std::fill(class_commits_.begin(), class_commits_.end(), 0);
  std::fill(class_restarts_.begin(), class_restarts_.end(), 0);
  if (obs_ != nullptr) obs_->ResetMeasurement();
  // Fresh interval estimators: a second RunExperiment must not inherit the
  // previous measurement's batches.
  bm_ = Estimators();
  active_mpl_.ResetWindow(sim_->Now());
  resources_.ResetWindow(sim_->Now());
}

void ClosedSystem::CloseBatch(SimTime batch_length) {
  SimTime now = sim_->Now();
  double seconds = ToSeconds(batch_length);
  bm_.throughput.AddBatch(static_cast<double>(batch_.commits) / seconds);
  if (batch_.response.count() > 0) {
    bm_.response.AddBatch(batch_.response.Mean());
  }
  if (batch_.commits > 0) {
    bm_.block_ratio.AddBatch(static_cast<double>(batch_.blocks) /
                             static_cast<double>(batch_.commits));
    bm_.restart_ratio.AddBatch(static_cast<double>(batch_.restarts) /
                               static_cast<double>(batch_.commits));
  }
  bm_.disk_total.AddBatch(resources_.DiskUtilization(now));
  bm_.cpu_total.AddBatch(resources_.CpuUtilization(now));
  bm_.log.AddBatch(resources_.LogUtilization(now));
  if (!config_.resources.infinite) {
    double disk_capacity =
        seconds * static_cast<double>(config_.resources.num_disks);
    double cpu_capacity =
        seconds * static_cast<double>(config_.resources.num_cpus);
    bm_.disk_useful.AddBatch(ToSeconds(batch_.useful_disk) / disk_capacity);
    bm_.cpu_useful.AddBatch(ToSeconds(batch_.useful_cpu) / cpu_capacity);
  }
  batch_ = BatchWindow{};
  resources_.ResetWindow(now);
}

MetricsReport ClosedSystem::RunExperiment(int batches, SimTime batch_length,
                                          SimTime warmup) {
  CCSIM_CHECK_GE(batches, 1);
  CCSIM_CHECK_GT(batch_length, 0);
  if (!primed_) Prime();

  sim_->RunUntil(sim_->Now() + warmup);
  ResetMeasurement();
  for (int b = 0; b < batches; ++b) {
    sim_->RunUntil(sim_->Now() + batch_length);
    CloseBatch(batch_length);
  }

  MetricsReport report;
  report.algorithm = cc_->name();
  report.mpl = mpl_;
  report.throughput = bm_.throughput.Estimate();
  report.response_mean = bm_.response.Estimate();
  report.response_stddev = measured_response_.StdDev();
  report.response_p50 = measured_response_hist_.Quantile(0.50);
  report.response_p90 = measured_response_hist_.Quantile(0.90);
  report.response_p99 = measured_response_hist_.Quantile(0.99);
  report.response_max = measured_response_.Max();
  report.block_ratio = bm_.block_ratio.Estimate();
  report.restart_ratio = bm_.restart_ratio.Estimate();
  report.disk_util_total = bm_.disk_total.Estimate();
  report.disk_util_useful = bm_.disk_useful.Estimate();
  report.cpu_util_total = bm_.cpu_total.Estimate();
  report.cpu_util_useful = bm_.cpu_useful.Estimate();
  report.log_util = bm_.log.Estimate();
  report.avg_active_mpl = active_mpl_.Average(sim_->Now());
  report.commits = measured_commits_;
  report.restarts = measured_restarts_;
  report.blocks = measured_blocks_;
  report.measured_seconds = ToSeconds(batch_length) * batches;
  report.batches = batches;
  report.cc_stats = cc_->stats();
  if (obs_ != nullptr) {
    report.phases = obs_->Phases();
    report.blame = obs_->Blame();
  }
  AuditFinal();
  if (auditor_ != nullptr) {
    report.audited = true;
    report.audit_violations = auditor_->violation_count();
    report.audit_checks = auditor_->checks_performed();
    report.replay_digest = auditor_->digest();
  }
  FinishObsArtifacts();
  for (size_t i = 0; i < class_response_.size(); ++i) {
    ClassMetrics metrics;
    metrics.name = config_.workload.ClassName(static_cast<int>(i));
    metrics.commits = class_commits_[i];
    metrics.restarts = class_restarts_[i];
    metrics.response_mean = class_response_[i].Mean();
    metrics.response_stddev = class_response_[i].StdDev();
    metrics.response_max = class_response_[i].Max();
    report.per_class.push_back(std::move(metrics));
  }
  return report;
}

TxnCensus ClosedSystem::Census() const {
  TxnCensus census;
  census.total = static_cast<int64_t>(txns_.size());
  census.ready = state_counts_[static_cast<size_t>(TxnState::kReady)];
  census.running = state_counts_[static_cast<size_t>(TxnState::kRunning)];
  census.blocked = state_counts_[static_cast<size_t>(TxnState::kBlocked)];
  census.thinking = state_counts_[static_cast<size_t>(TxnState::kIntThink)];
  census.restart_delay =
      state_counts_[static_cast<size_t>(TxnState::kRestartDelay)];
  census.ready_queue = static_cast<int64_t>(ready_queue_.size());
  census.active = active_count_;
  return census;
}

TxnCensus ClosedSystem::RecountCensus() const {
  TxnCensus census;
  census.total = static_cast<int64_t>(txns_.size());
  txns_.ForEach([&](TxnId, const Txn& txn) {
    switch (txn.state) {
      case TxnState::kReady: ++census.ready; break;
      case TxnState::kRunning: ++census.running; break;
      case TxnState::kBlocked: ++census.blocked; break;
      case TxnState::kIntThink: ++census.thinking; break;
      case TxnState::kRestartDelay: ++census.restart_delay; break;
    }
  });
  census.ready_queue = static_cast<int64_t>(ready_queue_.size());
  census.active = active_count_;
  return census;
}

std::string ClosedSystem::DescribeCensus() const {
  const TxnCensus census = Census();
  return StringPrintf(
      "census: %lld running, %lld blocked, %lld in internal think, "
      "%lld in restart delay, %lld ready (active=%d, lifetime commits=%lld, "
      "restarts=%lld)",
      static_cast<long long>(census.running),
      static_cast<long long>(census.blocked),
      static_cast<long long>(census.thinking),
      static_cast<long long>(census.restart_delay),
      static_cast<long long>(census.ready), active_count_,
      static_cast<long long>(lifetime_commits_),
      static_cast<long long>(lifetime_restarts_));
}

}  // namespace ccsim
