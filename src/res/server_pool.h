// Physical resource servers (Figure 2 of the paper).
//
// A ServerPool models k identical servers fed by one global queue with two
// priority classes (concurrency control requests are served before normal
// work, FCFS within class) — this is the paper's CPU model. A pool with one
// server is the building block of the partitioned-disk model. A pool may be
// configured as *infinite*, in which case every request is a pure service
// delay with no queuing — the paper's "infinite resources" assumption.
//
// Service path (docs/PERFORMANCE.md, "Service path"): a request never
// touches the heap once the pool has grown to its working size. Every
// request takes a slot from the pool's free-listed slot store
// (util/chunked_free_list.h), which holds the completion until the service
// ends; the kernel event captures only [pool, slot index], and the two
// priority FIFOs are intrusive lists threaded through the slots. Slots live
// in chunks that never move, so a completion runs in place even when it
// issues a new request that grows the store.
#ifndef CCSIM_RES_SERVER_POOL_H_
#define CCSIM_RES_SERVER_POOL_H_

#include <cstdint>
#include <string>
#include <utility>

#include "obs/span_sink.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "stats/time_weighted.h"
#include "stats/welford.h"
#include "util/check.h"
#include "util/chunked_free_list.h"
#include "util/small_fn.h"

namespace ccsim {

/// Service priority classes. Lower enumerator = served first.
enum class ServicePriority { kConcurrencyControl = 0, kNormal = 1 };

/// Simulated resource-fault scenarios (docs/FAULTS.md, "Fault windows"):
/// first-class workloads for studying graceful degradation, not injected
/// errors — the pool stays consistent and every request eventually
/// completes, later.
enum class FaultWindowKind : uint8_t {
  kNone = 0,
  /// Stall: during the window no *new* service starts — arrivals queue even
  /// with idle servers, and freed servers sit idle — but in-flight requests
  /// complete normally. Models a controller pausing its queue (firmware
  /// hiccup, SSD garbage-collection stall).
  kStall,
  /// Outage: a stall whose in-flight requests also freeze — any completion
  /// that would land inside the window is held until the window ends.
  /// Models the device dropping off the bus and coming back.
  kOutage,
};

/// One [start, end) window of simulated time during which the fault holds.
struct FaultWindow {
  FaultWindowKind kind = FaultWindowKind::kNone;
  SimTime start = 0;
  SimTime end = 0;

  bool enabled() const { return kind != FaultWindowKind::kNone; }
  bool active(SimTime now) const {
    return enabled() && now >= start && now < end;
  }
};

/// Completion callback of a service request, stored in the pool's slot
/// store. Its inline buffer covers the engine's completion captures ([this,
/// id, incarnation, cost, req_at] is 40 bytes); the kernel event that ends
/// the service captures only [pool, slot index], so the completion itself
/// is never moved into an EventCallback.
using ServiceCompletion = SmallFn<48>;

/// k identical servers with a shared two-class FCFS queue, or an infinite
/// server bank when constructed with `infinite = true`.
class ServerPool {
 public:
  /// `num_servers` is ignored when `infinite` is true. Requires
  /// num_servers >= 1 otherwise.
  ServerPool(Simulator* sim, int num_servers, bool infinite,
             std::string name = "pool");

  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;

  /// Requests `service_time` µs of service; `done` (any void() callable)
  /// fires at completion. It is constructed once, in its slot, and never
  /// moved afterwards. Requires service_time > 0 (zero-cost steps are the
  /// caller's business).
  template <typename F>
  void Request(SimTime service_time, ServicePriority priority, F&& done) {
    CCSIM_CHECK_GT(service_time, 0) << "zero-cost service in pool " << name_;
    const uint32_t slot = slots_.Acquire();
    Slot& s = SlotRef(slot);
    s.next = kNullSlot;
    s.service_time = service_time;
    s.enqueue_time = sim_->Now();
    s.done = std::forward<F>(done);
    Admit(slot, priority);
  }

  /// Arms one simulated fault window (docs/FAULTS.md). Must be called
  /// before the simulation advances into the window; requires
  /// 0 <= start < end and at most one window per pool. Schedules the
  /// deterministic drain event at `window.end`, so arming a window is
  /// itself part of the simulated workload (an unarmed pool's event
  /// sequence is untouched).
  void SetFaultWindow(const FaultWindow& window);

  const FaultWindow& fault_window() const { return fault_; }

  /// Requests delayed by the fault window so far (start deferred into the
  /// queue, or — outage — completion held to the window end).
  int64_t faulted_requests() const { return faulted_requests_; }

  /// Total extra delay the window injected, in simulated µs, summed over
  /// faulted requests (queue-deferral time plus held-completion time).
  SimTime fault_delay() const { return fault_delay_; }

  bool infinite() const { return infinite_; }
  int num_servers() const { return num_servers_; }
  const std::string& name() const { return name_; }

  /// Servers currently serving a request.
  int busy_servers() const { return busy_servers_; }

  /// Requests waiting in queue (all classes).
  size_t queue_length() const { return queued_; }

  /// Slots the slot store has handed out: the high-water mark of requests
  /// in service or queued at once (tests).
  size_t slots_used() const { return slots_.size(); }

  int64_t completed_requests() const { return completed_requests_; }

  /// Mean busy servers over the current measurement window. Divide by
  /// num_servers() for a utilization fraction (finite pools only).
  double MeanBusyServers(SimTime now) { return busy_time_.Average(now); }

  /// Utilization fraction in the current window; 0 for infinite pools where
  /// the notion is meaningless.
  double Utilization(SimTime now) {
    return infinite_ ? 0.0
                     : MeanBusyServers(now) / static_cast<double>(num_servers_);
  }

  /// Mean queue length over the current window.
  double MeanQueueLength(SimTime now) { return queue_len_.Average(now); }

  /// Waiting-time statistics (time in queue, excluding service).
  const Welford& wait_time_stats() const { return wait_times_; }

  /// Starts a new measurement window (batch boundary).
  void ResetWindow(SimTime now);

  /// Attaches an observability sink (nullptr detaches); the pool registers
  /// itself as a track and reports every service span and queue-depth
  /// change. Detached (the default), each hook is one null check.
  void AttachSpanSink(ServiceSpanSink* sink);

 private:
  /// One request, from Request() until its completion has run. `next`
  /// threads the slot through its priority FIFO while queued and through
  /// the store's free list once released.
  struct Slot {
    SimTime service_time = 0;
    SimTime enqueue_time = 0;
    ServiceCompletion done;
    uint32_t next = kNullSlot;
  };
  static constexpr uint32_t kNullSlot = ChunkedFreeList<Slot>::kNull;

  /// Head/tail of an intrusive FIFO of queued slots.
  struct Fifo {
    uint32_t head = kNullSlot;
    uint32_t tail = kNullSlot;
  };

  Slot& SlotRef(uint32_t slot) { return slots_[slot]; }
  Fifo& QueueFor(ServicePriority priority) {
    return priority == ServicePriority::kConcurrencyControl ? cc_queue_
                                                            : normal_queue_;
  }
  void PushBack(Fifo& fifo, uint32_t slot);
  /// Pops the highest-priority waiter; requires queue_length() > 0.
  uint32_t PopNext();
  /// Records a queue-length change (time-weighted average and span sink).
  void QueueChanged();

  /// Starts or queues a request (the non-template half of Request()).
  void Admit(uint32_t slot, ServicePriority priority);
  /// Takes a server for `slot` and schedules its completion (later than
  /// service_time if an outage holds it); the event captures only
  /// [this, slot].
  void BeginService(uint32_t slot);
  void OnServiceComplete(uint32_t slot);
  /// Fires at fault_.end: hands idle capacity to everything the window made
  /// wait (all of it, for an infinite pool).
  void DrainAfterFaultWindow();

  Simulator* sim_;
  int num_servers_;
  bool infinite_;
  std::string name_;

  int busy_servers_ = 0;
  Fifo cc_queue_;
  Fifo normal_queue_;
  size_t queued_ = 0;

  /// Chunks never move, so a Slot& stays valid while the store grows (see
  /// the file comment).
  ChunkedFreeList<Slot> slots_;

  FaultWindow fault_;
  int64_t faulted_requests_ = 0;
  SimTime fault_delay_ = 0;

  int64_t completed_requests_ = 0;
  TimeWeightedValue busy_time_;
  TimeWeightedValue queue_len_;
  Welford wait_times_;

  ServiceSpanSink* span_sink_ = nullptr;
  int span_track_ = -1;
};

}  // namespace ccsim

#endif  // CCSIM_RES_SERVER_POOL_H_
