// Outside-in probes for the traced run. Each attaches through a public seam
// of the engine and times or counts the work behind it; none edits or
// subclasses anything in the engine beyond those seams:
//
//   TimedCC         EngineConfig::cc_factory decorator around
//                   MakeConcurrencyControl: a span per cc call, with engine
//                   work triggered from a callback (grant, wound, blame)
//                   timed as a child span and excluded from cc self time.
//   ServiceProbe    ServiceSpanSink (ResourceManager::AttachSpanSink):
//                   services per pool and simulated queue depth.
//   LifecycleProbe  TraceSink (EngineConfig::lifecycle_sink): every
//                   lifecycle record stamped with host time, kept in memory;
//                   consecutive records of one transaction form its spans.
//   AllocCounter    counting global operator new, active only inside a
//                   counting window.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cc/concurrency_control.h"
#include "obs/span_sink.h"
#include "obs/trace.h"

namespace perfbench {

/// Host monotonic time in nanoseconds.
inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median cost of one HostNowNs() call, measured once per process. Each
/// span carries about one clock read of its own in its duration; the traced
/// self times subtract it.
double ClockReadNs();

/// Counting window for the benchmark binary's global operator new.
class AllocCounter {
 public:
  static void Start();           ///< Zeroes the count and starts counting.
  static uint64_t Stop();        ///< Stops counting; returns the count.
};

/// Suspends counting while alive (probe bookkeeping is not engine work).
class AllocPause {
 public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;

 private:
  bool was_counting_;
};

/// Span totals of one traced run of the cc layer.
struct CcLedger {
  int64_t calls = 0;      ///< cc spans.
  int64_t span_ns = 0;    ///< Their summed duration.
  int64_t children = 0;   ///< Engine callbacks run inside a cc span.
  int64_t child_ns = 0;   ///< Their summed duration.

  /// cc self time: span time minus child spans, minus one clock read per
  /// span and per child (each carries about one read of its own).
  double SelfNs(double clock_ns) const;
};

/// ConcurrencyControl decorator that times the inner algorithm's calls.
/// stats() mirrors the inner algorithm's after every call, so the report is
/// unchanged. With `flip_grant_at` > 0 it also turns that (1-based) granted
/// read request into a restart — the planted fault the self-test uses to
/// prove the output check catches a single changed decision.
class TimedCC final : public ccsim::ConcurrencyControl {
 public:
  TimedCC(std::unique_ptr<ccsim::ConcurrencyControl> inner, CcLedger* ledger,
          int64_t flip_grant_at = 0);

  std::string name() const override { return inner_->name(); }
  void ReserveCapacity(int64_t num_objects, int num_txns) override;
  void OnBegin(ccsim::TxnId txn, ccsim::SimTime first_start,
               ccsim::SimTime incarnation_start) override;
  bool needs_predeclaration() const override;
  ccsim::CCDecision Predeclare(ccsim::TxnId txn,
                               const std::vector<ccsim::ObjectId>& reads,
                               const std::vector<ccsim::ObjectId>& writes)
      override;
  ccsim::CCDecision ReadRequest(ccsim::TxnId txn, ccsim::ObjectId obj) override;
  ccsim::CCDecision WriteRequest(ccsim::TxnId txn,
                                 ccsim::ObjectId obj) override;
  bool Validate(ccsim::TxnId txn) override;
  void Commit(ccsim::TxnId txn) override;
  void Abort(ccsim::TxnId txn) override;
  void RegisterStats(ccsim::StatsRegistry* registry) override;
  void SetAuditor(ccsim::Auditor* auditor) override;
  bool AuditTracksWaiter(ccsim::TxnId txn) const override;
  void AuditCheck() const override;

 private:
  class Span;

  /// Hands the inner algorithm the engine's callbacks, each wrapped as a
  /// child span. The engine installs its callbacks after construction, so
  /// this runs at the first transaction call.
  void InstallCallbacks();
  template <typename... Args>
  std::function<void(Args...)> WrapChild(std::function<void(Args...)> engine);

  std::unique_ptr<ccsim::ConcurrencyControl> inner_;
  CcLedger* ledger_;
  int64_t flip_grant_at_;
  int64_t read_grants_ = 0;
  bool installed_ = false;
  /// Child-time accumulator of the innermost open span (nullptr outside).
  int64_t* open_child_ = nullptr;
};

/// ServiceSpanSink counting services per pool and integrating each pool's
/// queue depth over simulated time.
class ServiceProbe final : public ccsim::ServiceSpanSink {
 public:
  int RegisterTrack(const std::string& name) override;
  void OnServiceSpan(int track, ccsim::SimTime start,
                     ccsim::SimTime duration) override;
  void OnQueueDepth(int track, ccsim::SimTime now, int depth) override;

  int64_t cpu_services() const;
  int64_t disk_services() const;
  /// Requests waiting, summed over pools, time-averaged over [0, end).
  double MeanQueueDepth(ccsim::SimTime end) const;

 private:
  struct Track {
    std::string name;
    int64_t services = 0;
    ccsim::SimTime last_change = 0;
    int depth = 0;
    double area = 0.0;  ///< depth × simulated µs up to last_change.
  };
  int64_t ServicesWithPrefix(const char* prefix) const;

  std::vector<Track> tracks_;
};

/// TraceSink stamping host time on every lifecycle record.
class LifecycleProbe final : public ccsim::TraceSink {
 public:
  struct Stamped {
    int64_t host_ns;
    ccsim::TraceRecord record;
  };

  void Record(const ccsim::TraceRecord& record) override;

  int64_t count(ccsim::TxnEvent event) const {
    return counts_[static_cast<size_t>(event)];
  }
  int64_t total() const { return static_cast<int64_t>(records_.size()); }
  /// Checks the event grammar (ccsim::ValidateTrace) and that host stamps
  /// never run backwards. "" when both hold.
  std::string Validate() const;
  /// Writes one JSON line per span: consecutive records of one transaction,
  /// with their txn id, incarnation, events, and host and simulated times.
  bool WriteSpans(const std::string& path) const;

 private:
  std::vector<Stamped> records_;
  std::array<int64_t, 7> counts_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
