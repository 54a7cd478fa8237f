#include "res/server_pool.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace ccsim {

ServerPool::ServerPool(Simulator* sim, int num_servers, bool infinite,
                       std::string name)
    : sim_(sim),
      num_servers_(infinite ? 0 : num_servers),
      infinite_(infinite),
      name_(std::move(name)),
      busy_time_(sim->Now()),
      queue_len_(sim->Now()) {
  CCSIM_CHECK(infinite || num_servers >= 1)
      << "finite pool " << name_ << " needs at least one server";
}

void ServerPool::PushBack(Fifo& fifo, uint32_t slot) {
  if (fifo.tail == kNullSlot) {
    fifo.head = slot;
  } else {
    SlotRef(fifo.tail).next = slot;
  }
  fifo.tail = slot;
  ++queued_;
}

uint32_t ServerPool::PopNext() {
  Fifo& fifo = cc_queue_.head != kNullSlot ? cc_queue_ : normal_queue_;
  const uint32_t slot = fifo.head;
  CCSIM_CHECK_NE(slot, kNullSlot) << "pop from empty queue of pool " << name_;
  Slot& s = SlotRef(slot);
  fifo.head = s.next;
  if (fifo.head == kNullSlot) fifo.tail = kNullSlot;
  s.next = kNullSlot;
  --queued_;
  return slot;
}

void ServerPool::QueueChanged() {
  queue_len_.Set(sim_->Now(), static_cast<double>(queued_));
  if (span_sink_ != nullptr) {
    span_sink_->OnQueueDepth(span_track_, sim_->Now(),
                             static_cast<int>(queued_));
  }
}

void ServerPool::Admit(uint32_t slot, ServicePriority priority) {
  // Inside a fault window nothing starts: the request queues even with idle
  // servers (infinite pools included — their only queue use), and the drain
  // event at the window end picks it up. Deferral time is attributed to
  // fault_delay() at drain.
  if (fault_.active(sim_->Now())) {
    ++faulted_requests_;
    PushBack(QueueFor(priority), slot);
    QueueChanged();
    return;
  }
  if (infinite_ || busy_servers_ < num_servers_) {
    wait_times_.Add(0.0);
    BeginService(slot);
    return;
  }
  PushBack(QueueFor(priority), slot);
  QueueChanged();
}

void ServerPool::BeginService(uint32_t slot) {
  ++busy_servers_;
  busy_time_.Set(sim_->Now(), static_cast<double>(busy_servers_));
  SimTime service_time = SlotRef(slot).service_time;
  // Outage hold: a completion that would land inside the window is held to
  // the window end — the server stays busy and the request simply takes
  // longer, modelling in-flight work frozen on a device that dropped off.
  if (fault_.kind == FaultWindowKind::kOutage) {
    const SimTime completes = sim_->Now() + service_time;
    if (completes >= fault_.start && completes < fault_.end) {
      ++faulted_requests_;
      fault_delay_ += fault_.end - completes;
      service_time = fault_.end - sim_->Now();
    }
  }
  if (span_sink_ != nullptr) {
    span_sink_->OnServiceSpan(span_track_, sim_->Now(), service_time);
  }
  auto on_complete = [this, slot] { OnServiceComplete(slot); };
  static_assert(EventCallback::FitsInline<decltype(on_complete)>(),
                "the service completion event must stay inside "
                "EventCallback's inline buffer");
  sim_->Schedule(service_time, on_complete);
}

void ServerPool::OnServiceComplete(uint32_t slot) {
  --busy_servers_;
  CCSIM_CHECK_GE(busy_servers_, 0);
  busy_time_.Set(sim_->Now(), static_cast<double>(busy_servers_));
  ++completed_requests_;
  // Hand the freed server to the highest-priority waiter before running the
  // completion, so that queue statistics reflect the instant of transfer.
  // During a stall window the freed server idles instead — the drain event
  // at the window end performs the deferred handoffs. (Under an outage no
  // completion can land here: BeginService held them past the window.)
  if (!infinite_ && !fault_.active(sim_->Now()) && queued_ > 0) {
    const uint32_t next = PopNext();
    QueueChanged();
    wait_times_.Add(ToSeconds(sim_->Now() - SlotRef(next).enqueue_time));
    BeginService(next);
  }
  // The completion runs in place; the slot joins the free list only after
  // it returns, so a Request() from inside it never reuses this storage. (On
  // a throw the slot leaks off the free list, which is fine — a run
  // abandoned by exception discards the pool.)
  SlotRef(slot).done.InvokeConsume();
  slots_.Release(slot);
}

void ServerPool::SetFaultWindow(const FaultWindow& window) {
  CCSIM_CHECK(window.enabled())
      << "SetFaultWindow(kNone) on pool " << name_;
  CCSIM_CHECK(!fault_.enabled())
      << "pool " << name_ << " already has a fault window";
  CCSIM_CHECK_GE(window.start, 0);
  CCSIM_CHECK_GT(window.end, window.start)
      << "empty fault window on pool " << name_;
  CCSIM_CHECK_GE(window.start, sim_->Now())
      << "fault window on pool " << name_ << " starts in the past";
  fault_ = window;
  sim_->Schedule(fault_.end - sim_->Now(), [this] { DrainAfterFaultWindow(); });
}

void ServerPool::DrainAfterFaultWindow() {
  // The window just closed (now == fault_.end, so active() is false): start
  // everything the window made wait, capacity permitting. Waiters that were
  // already queued when the window opened count as faulted here — their
  // wait since the window start is attributable to it; arrivals during the
  // window were counted at Request time.
  while ((infinite_ || busy_servers_ < num_servers_) && queued_ > 0) {
    const uint32_t next = PopNext();
    const SimTime enqueued = SlotRef(next).enqueue_time;
    if (enqueued < fault_.start) ++faulted_requests_;
    fault_delay_ += sim_->Now() - std::max(enqueued, fault_.start);
    QueueChanged();
    wait_times_.Add(ToSeconds(sim_->Now() - enqueued));
    BeginService(next);
  }
}

void ServerPool::ResetWindow(SimTime now) {
  busy_time_.ResetWindow(now);
  queue_len_.ResetWindow(now);
  wait_times_.Reset();
}

void ServerPool::AttachSpanSink(ServiceSpanSink* sink) {
  span_sink_ = sink;
  span_track_ = sink != nullptr ? sink->RegisterTrack(name_) : -1;
}

}  // namespace ccsim
