#include "probes.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <new>
#include <unordered_map>
#include <utility>

namespace {

// The benchmark is single-threaded; the counters need no atomics.
bool g_counting = false;
uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t size) {
  if (g_counting) ++g_allocs;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replacement global allocation functions for this binary only. The nothrow
// and aligned forms keep their library definitions, which route through
// these or through the matching aligned pair.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

using ccsim::CCDecision;
using ccsim::ObjectId;
using ccsim::SimTime;
using ccsim::TxnId;

double ClockReadNs() {
  static const double cost = [] {
    std::vector<double> samples;
    for (int round = 0; round < 31; ++round) {
      constexpr int kReads = 2000;
      const int64_t t0 = HostNowNs();
      for (int i = 0; i < kReads; ++i) (void)HostNowNs();
      const int64_t t1 = HostNowNs();
      samples.push_back(static_cast<double>(t1 - t0) / kReads);
    }
    std::nth_element(samples.begin(), samples.begin() + 15, samples.end());
    return samples[15];
  }();
  return cost;
}

void AllocCounter::Start() {
  g_allocs = 0;
  g_counting = true;
}

uint64_t AllocCounter::Stop() {
  g_counting = false;
  return g_allocs;
}

AllocPause::AllocPause() : was_counting_(g_counting) { g_counting = false; }
AllocPause::~AllocPause() { g_counting = was_counting_; }

double CcLedger::SelfNs(double clock_ns) const {
  return static_cast<double>(span_ns - child_ns) -
         static_cast<double>(calls + children) * clock_ns;
}

// --- TimedCC ---

/// One timed cc call: opens a child-time accumulator, and on close books
/// the span and mirrors the inner algorithm's counters.
class TimedCC::Span {
 public:
  explicit Span(TimedCC* cc) : cc_(cc), outer_(cc->open_child_) {
    cc_->open_child_ = &child_ns_;
    ++cc_->ledger_->calls;
    t0_ = HostNowNs();
  }
  ~Span() {
    const int64_t t1 = HostNowNs();
    cc_->ledger_->span_ns += t1 - t0_;
    cc_->ledger_->child_ns += child_ns_;
    cc_->open_child_ = outer_;
    cc_->stats_ = cc_->inner_->stats();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TimedCC* cc_;
  int64_t* outer_;
  int64_t child_ns_ = 0;
  int64_t t0_ = 0;
};

TimedCC::TimedCC(std::unique_ptr<ccsim::ConcurrencyControl> inner,
                 CcLedger* ledger, int64_t flip_grant_at)
    : inner_(std::move(inner)),
      ledger_(ledger),
      flip_grant_at_(flip_grant_at) {}

template <typename... Args>
std::function<void(Args...)> TimedCC::WrapChild(
    std::function<void(Args...)> engine) {
  if (!engine) return nullptr;  // Keep optional callbacks optional.
  return [this, engine = std::move(engine)](Args... args) {
    const int64_t t0 = HostNowNs();
    engine(args...);
    const int64_t dt = HostNowNs() - t0;
    ++ledger_->children;
    if (open_child_ != nullptr) *open_child_ += dt;
  };
}

void TimedCC::InstallCallbacks() {
  AllocPause pause;
  ccsim::CCCallbacks wrapped;
  wrapped.on_granted = WrapChild(callbacks_.on_granted);
  wrapped.on_wound = WrapChild(callbacks_.on_wound);
  wrapped.now = callbacks_.now;
  wrapped.on_version_read = WrapChild(callbacks_.on_version_read);
  wrapped.on_blame = WrapChild(callbacks_.on_blame);
  inner_->SetCallbacks(std::move(wrapped));
  installed_ = true;
}

void TimedCC::ReserveCapacity(int64_t num_objects, int num_txns) {
  inner_->ReserveCapacity(num_objects, num_txns);
}

void TimedCC::OnBegin(TxnId txn, SimTime first_start,
                      SimTime incarnation_start) {
  if (!installed_) InstallCallbacks();
  Span span(this);
  inner_->OnBegin(txn, first_start, incarnation_start);
}

bool TimedCC::needs_predeclaration() const {
  return inner_->needs_predeclaration();
}

CCDecision TimedCC::Predeclare(TxnId txn, const std::vector<ObjectId>& reads,
                               const std::vector<ObjectId>& writes) {
  Span span(this);
  return inner_->Predeclare(txn, reads, writes);
}

CCDecision TimedCC::ReadRequest(TxnId txn, ObjectId obj) {
  CCDecision decision;
  {
    Span span(this);
    decision = inner_->ReadRequest(txn, obj);
  }
  if (decision == CCDecision::kGranted && flip_grant_at_ > 0 &&
      ++read_grants_ == flip_grant_at_) {
    decision = CCDecision::kRestart;
  }
  return decision;
}

CCDecision TimedCC::WriteRequest(TxnId txn, ObjectId obj) {
  Span span(this);
  return inner_->WriteRequest(txn, obj);
}

bool TimedCC::Validate(TxnId txn) {
  Span span(this);
  return inner_->Validate(txn);
}

void TimedCC::Commit(TxnId txn) {
  Span span(this);
  inner_->Commit(txn);
}

void TimedCC::Abort(TxnId txn) {
  Span span(this);
  inner_->Abort(txn);
}

void TimedCC::RegisterStats(ccsim::StatsRegistry* registry) {
  inner_->RegisterStats(registry);
}

void TimedCC::SetAuditor(ccsim::Auditor* auditor) {
  ConcurrencyControl::SetAuditor(auditor);
  inner_->SetAuditor(auditor);
}

bool TimedCC::AuditTracksWaiter(TxnId txn) const {
  return inner_->AuditTracksWaiter(txn);
}

void TimedCC::AuditCheck() const { inner_->AuditCheck(); }

// --- ServiceProbe ---

int ServiceProbe::RegisterTrack(const std::string& name) {
  tracks_.push_back(Track{name});
  return static_cast<int>(tracks_.size()) - 1;
}

void ServiceProbe::OnServiceSpan(int track, SimTime start, SimTime duration) {
  (void)start;
  (void)duration;
  ++tracks_[static_cast<size_t>(track)].services;
}

void ServiceProbe::OnQueueDepth(int track, SimTime now, int depth) {
  Track& t = tracks_[static_cast<size_t>(track)];
  t.area += static_cast<double>(t.depth) *
            static_cast<double>(now - t.last_change);
  t.last_change = now;
  t.depth = depth;
}

int64_t ServiceProbe::ServicesWithPrefix(const char* prefix) const {
  int64_t n = 0;
  for (const Track& t : tracks_) {
    if (t.name.rfind(prefix, 0) == 0) n += t.services;
  }
  return n;
}

int64_t ServiceProbe::cpu_services() const { return ServicesWithPrefix("cpu"); }
int64_t ServiceProbe::disk_services() const {
  return ServicesWithPrefix("disk");
}

double ServiceProbe::MeanQueueDepth(SimTime end) const {
  if (end <= 0) return 0.0;
  double area = 0.0;
  for (const Track& t : tracks_) {
    area += t.area + static_cast<double>(t.depth) *
                         static_cast<double>(end - t.last_change);
  }
  return area / static_cast<double>(end);
}

// --- LifecycleProbe ---

void LifecycleProbe::Record(const ccsim::TraceRecord& record) {
  const int64_t now = HostNowNs();
  AllocPause pause;
  records_.push_back(Stamped{now, record});
  ++counts_[static_cast<size_t>(record.event)];
}

std::string LifecycleProbe::Validate() const {
  std::vector<ccsim::TraceRecord> plain;
  plain.reserve(records_.size());
  for (const Stamped& s : records_) plain.push_back(s.record);
  ccsim::TraceValidation grammar = ccsim::ValidateTrace(plain);
  if (!grammar.ok) return "lifecycle trace: " + grammar.error;
  for (size_t i = 1; i < records_.size(); ++i) {
    if (records_[i].host_ns < records_[i - 1].host_ns) {
      return "lifecycle trace: host stamps run backwards";
    }
  }
  return "";
}

bool LifecycleProbe::WriteSpans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::unordered_map<TxnId, size_t> open;  // txn -> index of its last record
  for (size_t i = 0; i < records_.size(); ++i) {
    const Stamped& cur = records_[i];
    auto [it, fresh] = open.try_emplace(cur.record.txn, i);
    if (!fresh) {
      const Stamped& prev = records_[it->second];
      out << "{\"txn\":" << cur.record.txn
          << ",\"incarnation\":" << prev.record.incarnation << ",\"from\":\""
          << ccsim::TxnEventName(prev.record.event) << "\",\"to\":\""
          << ccsim::TxnEventName(cur.record.event)
          << "\",\"host_start_ns\":" << prev.host_ns
          << ",\"host_end_ns\":" << cur.host_ns
          << ",\"sim_start_us\":" << prev.record.time
          << ",\"sim_end_us\":" << cur.record.time << "}\n";
      it->second = i;
    }
    if (cur.record.event == ccsim::TxnEvent::kCommitted) open.erase(it);
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
