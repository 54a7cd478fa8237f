// The transaction lifecycle stream.
//
// The engine emits one record per lifecycle event — submission, activation,
// block, resume, internal think, restart, commit — to a subscriber list
// fixed at construction (core/closed_system.h): the configured lifecycle
// sink, the Perfetto tracer (obs/engine_tracer.h) and the phase/blame view
// (obs/lifecycle_stats.h). Every subscriber is a TraceSink. The stream
// serves debugging (StreamTraceSink renders a readable log), testing
// (MemoryTraceSink lets tests assert that every transaction's event
// sequence is well-formed) and every per-transaction observability view.
// With no subscriber an event costs one branch.
#ifndef CCSIM_OBS_TRACE_H_
#define CCSIM_OBS_TRACE_H_

#include <ostream>
#include <string>
#include <vector>

#include "cc/types.h"
#include "sim/time.h"

namespace ccsim {

enum class TxnEvent {
  kSubmitted,      ///< Entered the ready queue (new transaction).
  kActivated,      ///< Admitted under the mpl; incarnation begins.
  kBlocked,        ///< A cc request put it to sleep.
  kResumed,        ///< A blocked request was woken for retry.
  kInternalThink,  ///< Began its intra-transaction think.
  kRestarted,      ///< Incarnation aborted; will re-enter the ready queue.
  kCommitted,      ///< Finished.
};

/// Stable display name for an event.
const char* TxnEventName(TxnEvent event);

/// Why an incarnation restarted.
enum class RestartCause {
  kWound,       ///< Chosen as a victim (deadlock or wound-wait).
  kDecision,    ///< The cc algorithm answered kRestart to a request.
  kValidation,  ///< Commit-point validation failed.
};

/// Service one incarnation received and its queueing for it, in µs.
struct IncarnationCost {
  SimTime cpu = 0;     ///< CPU service (object and cc processing).
  SimTime disk = 0;    ///< Data-disk service (reads, deferred updates).
  SimTime log = 0;     ///< Log-disk service (a commit record's own write).
  SimTime queued = 0;  ///< Waiting in the CPU, disk and log queues.
};

struct TraceRecord {
  SimTime time = 0;
  TxnId txn = kInvalidTxn;
  int incarnation = 0;
  TxnEvent event = TxnEvent::kSubmitted;
  // Payload: set only on the events named, default elsewhere.
  RestartCause cause = RestartCause::kWound;  ///< kRestarted.
  SimTime restart_delay = 0;  ///< kRestarted: wait before the ready queue.
  SimTime think = 0;          ///< kInternalThink: length of the think.
  IncarnationCost cost{};     ///< kRestarted, kCommitted: the ending
                              ///< incarnation's service and queueing.
};

/// Receives every lifecycle record (a lifecycle-stream subscriber).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Record(const TraceRecord& record) = 0;
};

/// Collects records in memory (tests, post-hoc analysis).
class MemoryTraceSink : public TraceSink {
 public:
  void Record(const TraceRecord& record) override {
    records_.push_back(record);
  }
  const std::vector<TraceRecord>& records() const { return records_; }

 private:
  std::vector<TraceRecord> records_;
};

/// Formats records as text lines, one per event.
class StreamTraceSink : public TraceSink {
 public:
  explicit StreamTraceSink(std::ostream* out) : out_(out) {}
  void Record(const TraceRecord& record) override;

 private:
  std::ostream* out_;
};

/// Result of validating a trace's per-transaction event grammar:
///   Submitted Activated (Blocked Resumed* | InternalThink | Restarted
///   Activated)* Committed?
/// plus: incarnations increase by exactly 1 per Activated, Restarted is
/// always followed by another Activated or nothing (end of run), and
/// Committed is terminal.
struct TraceValidation {
  bool ok = true;
  std::string error;  ///< First violation found.
};

TraceValidation ValidateTrace(const std::vector<TraceRecord>& records);

}  // namespace ccsim

#endif  // CCSIM_OBS_TRACE_H_
