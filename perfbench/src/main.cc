// ccsim_perfbench: host time per simulated commit on four points of the
// paper's experiments, plus an outside-in ledger of where that time goes.
// See README.md in this directory for the workloads, metrics and ledger.
//
//   ccsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--pins FILE] [--spans FILE] [--rev REV]
//   ccsim_perfbench --self-test [--pins FILE]
//   ccsim_perfbench --write-pins FILE
//
// --trace 0 measures the end-to-end metrics with every probe off; --trace 1
// is the separate traced run that produces the per-layer metrics. Either
// way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted/failed count point runs. A point fails if the engine
// reports an error or its simulated output fails a check.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cc/factory.h"
#include "core/closed_system.h"
#include "drivers.h"
#include "probes.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ccsim::ClosedSystem;
using ccsim::EngineConfig;
using ccsim::MetricsReport;
using ccsim::SimTime;
using ccsim::Simulator;
using ccsim::TxnEvent;

/// The seed whose simulated statistics pins.tsv records.
constexpr uint64_t kPinnedSeed = 42;

// --- Small helpers ---

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  return (upper + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PerCommit(double total, int64_t commits) {
  return commits > 0 ? total / static_cast<double>(commits) : 0.0;
}

/// Host speed reference. Pass times are scaled by how long this fixed work
/// takes right before and after each point, to the time it would take at
/// kReferenceCalibrationNs. The work is a binary heap of random keys pushed
/// and popped — close to the event kernel's own work, and part of the
/// benchmark, not of the code under test. A shared 4-vCPU Intel Xeon VM was
/// seen to alternate between speeds about 1.4x apart for seconds at a time;
/// the loop sees the same switches, so scaling removes most of them.
constexpr double kReferenceCalibrationNs = 0.8e6;

double CalibrationNs() {
  // The fastest of several short rounds: a mode lasts seconds, so every
  // round sees it, while a one-off preemption spoils only one round.
  constexpr int kRounds = 5;
  double best = 0.0;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t sum = 0;
  std::vector<uint64_t> heap;
  heap.reserve(4096);
  for (int round = 0; round < kRounds; ++round) {
    heap.clear();
    auto next = [&x] {  // xorshift64
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    const int64_t t0 = HostNowNs();
    for (int i = 0; i < 4096; ++i) {
      heap.push_back(next());
      std::push_heap(heap.begin(), heap.end());
    }
    for (int i = 0; i < 10000; ++i) {
      std::pop_heap(heap.begin(), heap.end());
      sum += heap.back();
      heap.back() = next();
      std::push_heap(heap.begin(), heap.end());
    }
    const double ns = static_cast<double>(HostNowNs() - t0);
    if (round == 0 || ns < best) best = ns;
  }
  // Keep the result observable so the loop cannot be dropped.
  if (sum == 0) std::printf("calibration sum is zero\n");
  return best;
}

/// Peak resident set of this process image, from /proc/self/status VmHWM.
/// (getrusage's ru_maxrss would also count the launcher's image before
/// exec.) 0 when unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return 0.0;
}

/// Ordered name -> (value, unit) map for the result line.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-34s %16.6f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Point-run bookkeeping for the result line: every point run is attempted;
/// a run that errors or fails a check is failed.
class Tally {
 public:
  void Attempt() { ++attempted_; }
  void Fail(const std::string& what) {
    ++failed_;
    if (failed_ <= 10) std::printf("FAILED: %s\n", what.c_str());
  }
  /// A check on already-attempted runs (determinism, pins, paper shape).
  void Check(const std::string& error, const std::string& where) {
    if (!error.empty()) Fail(where + ": " + error);
  }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  int64_t attempted() const { return attempted_; }
  /// Several checks can fail one run; it still counts once at most.
  int64_t failed() const { return std::min(failed_, attempted_); }

  void PrintResult(const Metrics& metrics) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
                correct() ? "true" : "false", attempted(), failed(),
                metrics.Json().c_str());
    std::fflush(stdout);
  }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// --- Pins ---

using Pins = std::map<std::string, std::string>;  // "workload/algo" -> stats

std::string PinKey(const Workload& w, size_t index) {
  return w.name + "/" + w.algorithms[index];
}

std::optional<Pins> LoadPins(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Pins pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t a = line.find('\t');
    const size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    pins[line.substr(0, a) + "/" + line.substr(a + 1, b - a - 1)] =
        line.substr(b + 1);
  }
  return pins;
}

std::string CheckPin(const Pins* pins, const Workload& w, size_t index,
                     const SimStats& stats) {
  if (pins == nullptr) return "no pins file";
  auto it = pins->find(PinKey(w, index));
  if (it == pins->end()) return "no pin for " + PinKey(w, index);
  if (it->second != stats.Format()) {
    return "differs from pin\n    pinned: " + it->second +
           "\n    got:    " + stats.Format();
  }
  return "";
}

std::string CompareStats(const SimStats& expected, const SimStats& got) {
  if (expected == got) return "";
  return "simulated statistics differ\n    expected: " + expected.Format() +
         "\n    got:      " + got.Format();
}

// --- Running one point ---

/// Probes attached to one traced point run.
struct Probes {
  CcLedger cc;
  ServiceProbe services;
  LifecycleProbe lifecycle;
  uint64_t allocs = 0;
  int64_t flip_grant_at = 0;  ///< Self-test only (TimedCC).
};

struct PointRun {
  std::string error;  ///< "" when the point ran and passed CheckPoint.
  SimStats stats;
  int64_t audit_checks = 0;
  double setup_s = 0.0;  ///< Config + Simulator + ClosedSystem + Prime().
  double run_s = 0.0;    ///< RunExperiment (warmup + batches).
  /// kReferenceCalibrationNs ÷ the calibration time around this point.
  double speed = 1.0;
  SimTime end_time = 0;
  size_t pending_events = 0;
  ccsim::WorkloadParams params;

  bool ok() const { return error.empty(); }
};

PointRun RunPoint(const Workload& w, size_t index, uint64_t seed,
                  Layers layers, Probes* probes) {
  PointRun run;
  // Engine check failures become this point's error instead of an abort.
  ccsim::ScopedCheckTrap trap;
  try {
    const int64_t t0 = HostNowNs();
    EngineConfig config = PointConfig(w, index, seed, layers);
    if (probes != nullptr) {
      config.cc_factory = [probes](const EngineConfig& c) {
        return std::make_unique<TimedCC>(
            ccsim::MakeConcurrencyControl(c.algorithm, c.victim_policy),
            &probes->cc, probes->flip_grant_at);
      };
      config.lifecycle_sink = &probes->lifecycle;
    }
    auto sim = std::make_unique<Simulator>();
    auto system = std::make_unique<ClosedSystem>(sim.get(), config);
    if (probes != nullptr) system->resources().AttachSpanSink(&probes->services);
    system->Prime();
    const int64_t t1 = HostNowNs();
    if (probes != nullptr) AllocCounter::Start();
    const ccsim::RunLengths& l = w.lengths;
    MetricsReport report =
        system->RunExperiment(l.batches, l.batch_length, l.warmup);
    const int64_t t2 = HostNowNs();
    if (probes != nullptr) probes->allocs = AllocCounter::Stop();
    run.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    run.run_s = static_cast<double>(t2 - t1) * 1e-9;
    run.stats = CollectStats(report, *sim, *system);
    run.audit_checks = report.audit_checks;
    run.end_time = sim->Now();
    run.pending_events = sim->pending_events();
    run.params = config.workload;
    run.error = CheckPoint(config, report, run.stats);
    if (run.ok() && probes != nullptr) {
      run.error = probes->lifecycle.Validate();
      if (run.ok() && probes->lifecycle.count(TxnEvent::kCommitted) !=
                          run.stats.lifetime_commits) {
        run.error = "lifecycle probe missed commits";
      }
    }
  } catch (const std::exception& e) {
    AllocCounter::Stop();
    run.error = e.what();
  }
  return run;
}

/// One pass over every point of a workload.
struct Pass {
  std::vector<PointRun> points;
  std::vector<std::unique_ptr<Probes>> probes;  ///< Traced passes only.

  int64_t commits() const {
    int64_t n = 0;
    for (const PointRun& p : points) n += p.stats.lifetime_commits;
    return n;
  }
  double run_s() const {
    double s = 0;
    for (const PointRun& p : points) s += p.run_s;
    return s;
  }
  double ns_per_commit() const { return PerCommit(run_s() * 1e9, commits()); }
  /// Host times scaled to the reference speed (see CalibrationNs).
  double scaled_ns_per_commit() const {
    double s = 0;
    for (const PointRun& p : points) s += p.run_s * p.speed;
    return PerCommit(s * 1e9, commits());
  }
  double scaled_setup_s() const {
    double s = 0;
    for (const PointRun& p : points) s += p.setup_s * p.speed;
    return s;
  }
  std::vector<SimStats> stats() const {
    std::vector<SimStats> out;
    for (const PointRun& p : points) out.push_back(p.stats);
    return out;
  }
};

Pass RunPass(const Workload& w, uint64_t seed, Layers layers, bool traced,
             Tally* tally, const std::string& label) {
  Pass pass;
  double before = CalibrationNs();
  for (size_t i = 0; i < w.points(); ++i) {
    Probes* probes = nullptr;
    if (traced) {
      pass.probes.push_back(std::make_unique<Probes>());
      probes = pass.probes.back().get();
    }
    pass.points.push_back(RunPoint(w, i, seed, layers, probes));
    const double after = CalibrationNs();
    pass.points.back().speed = kReferenceCalibrationNs / ((before + after) / 2);
    before = after;
    tally->Attempt();
    const PointRun& run = pass.points.back();
    if (!run.ok()) tally->Fail(label + " " + PinKey(w, i) + ": " + run.error);
  }
  return pass;
}

/// Checks a pass against the reference pass of the same simulation: every
/// point's simulated statistics must be identical. With `audit_differs` the
/// two passes ran with different audit settings, so only the simulation
/// itself (not the audit digest) must agree.
void CheckSame(const Pass& reference, const Pass& pass, Tally* tally,
               const Workload& w, const std::string& label,
               bool audit_differs = false) {
  for (size_t i = 0; i < pass.points.size(); ++i) {
    if (!pass.points[i].ok() || !reference.points[i].ok()) continue;
    SimStats expected = reference.points[i].stats;
    if (audit_differs) {
      expected.digest = pass.points[i].stats.digest;
      expected.audit_violations = pass.points[i].stats.audit_violations;
    }
    tally->Check(CompareStats(expected, pass.points[i].stats),
                 label + " " + PinKey(w, i));
  }
}

/// Checks that hold on the first (reference) pass only: the pins at the
/// pinned seed, and the paper's qualitative result at every seed.
void CheckReference(const Workload& w, uint64_t seed, const Pass& pass,
                    const Pins* pins, Tally* tally) {
  if (seed == kPinnedSeed) {
    for (size_t i = 0; i < pass.points.size(); ++i) {
      if (pass.points[i].ok()) {
        tally->Check(CheckPin(pins, w, i, pass.points[i].stats),
                     "pin " + PinKey(w, i));
      }
    }
  }
  tally->Check(CheckPaperShape(w, pass.stats()), "paper shape " + w.name);
  for (size_t i = 0; i < pass.points.size(); ++i) {
    std::printf("  %s: %s\n", w.algorithms[i].c_str(),
                pass.points[i].stats.Format().c_str());
  }
}

void PrintInput(const Workload& w, uint64_t seed) {
  std::printf("workload %s: %zu point(s) x %.0f simulated s (warmup %.0f s + "
              "%d x %.0f s batches), seed %" PRIu64 "\n",
              w.name.c_str(), w.points(), w.SimSecondsPerPoint(),
              ccsim::ToSeconds(w.lengths.warmup), w.lengths.batches,
              ccsim::ToSeconds(w.lengths.batch_length), seed);
  std::printf("  algorithms:");
  for (const std::string& a : w.algorithms) std::printf(" %s", a.c_str());
  std::printf("  db_size=%" PRId64 " mpl=%d resources=%s audit=%d obs=%d\n",
              w.db_size, w.mpl, w.infinite ? "infinite" : "1cpu+2disks",
              w.layers.audit, w.layers.obs);
}

void PrintSpread(const char* name, const std::vector<double>& v,
                 const char* unit) {
  std::printf("  %s: median %.4f %s, p25 %.4f, p75 %.4f, p90 %.4f, min %.4f, "
              "max %.4f (n=%zu)\n",
              name, Median(v), unit, Quantile(v, 0.25), Quantile(v, 0.75),
              Quantile(v, 0.9),
              *std::min_element(v.begin(), v.end()),
              *std::max_element(v.begin(), v.end()), v.size());
  std::printf("   ");
  for (double x : v) std::printf(" %.4g", x);
  std::printf("\n");
}

// --- The untraced run: end-to-end metrics ---

int RunUntraced(const Workload& w, uint64_t seed, double seconds,
                const Pins* pins) {
  Tally tally;
  const int64_t deadline =
      HostNowNs() + static_cast<int64_t>(seconds * 1e9);
  // Pass 0 warms caches and the allocator and is the reference the timed
  // passes must reproduce exactly; it is not timed.
  Pass reference = RunPass(w, seed, w.layers, false, &tally, "warmup");
  CheckReference(w, seed, reference, pins, &tally);
  std::printf("  commits per pass: %" PRId64 "\n", reference.commits());
  std::vector<double> us_per_commit;  // Scaled to the reference speed.
  std::vector<double> raw_us_per_commit;
  std::vector<double> setup_s;
  constexpr size_t kMinPasses = 3;
  while (us_per_commit.size() < kMinPasses || HostNowNs() < deadline) {
    Pass pass = RunPass(w, seed, w.layers, false, &tally, "pass");
    CheckSame(reference, pass, &tally, w, "determinism");
    us_per_commit.push_back(pass.scaled_ns_per_commit() * 1e-3);
    raw_us_per_commit.push_back(pass.ns_per_commit() * 1e-3);
    setup_s.push_back(pass.scaled_setup_s());
  }
  PrintSpread("host_us_per_commit (unscaled)", raw_us_per_commit, "us");
  PrintSpread("host_us_per_commit", us_per_commit, "us");
  PrintSpread("setup_s", setup_s, "s");

  // The upper quartile of the scaled passes: the scaling removes most of
  // the host's speed switches, and of the rest, the quartile is the
  // steadier statistic across runs on that VM.
  Metrics metrics;
  metrics.Add("host_us_per_commit", Quantile(us_per_commit, 0.75), "us");
  metrics.Add("setup_s", Median(setup_s), "s");
  metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  metrics.Add("point_success_ratio",
              static_cast<double>(tally.attempted() - tally.failed()) /
                  static_cast<double>(tally.attempted()),
              "ratio");
  metrics.Print();
  tally.PrintResult(metrics);
  return tally.correct() ? 0 : 1;
}

// --- The traced run: per-layer metrics and the ledger ---

/// Counts of one traced pass, summed over its points.
struct TracedCounts {
  int64_t commits = 0;
  double events = 0, cpu_services = 0, disk_services = 0;
  double submitted = 0, activated = 0, committed = 0, blocked = 0,
         restarted = 0, lifecycle = 0;
  double cc_calls = 0, allocs = 0, queue_depth = 0;
  double cc_self_ns = 0;

  static TracedCounts Of(const Pass& pass, double clock_ns) {
    TracedCounts c;
    for (size_t i = 0; i < pass.points.size(); ++i) {
      const PointRun& run = pass.points[i];
      const Probes& p = *pass.probes[i];
      c.commits += run.stats.lifetime_commits;
      c.events += static_cast<double>(run.stats.events);
      c.cpu_services += static_cast<double>(p.services.cpu_services());
      c.disk_services += static_cast<double>(p.services.disk_services());
      c.submitted += static_cast<double>(p.lifecycle.count(TxnEvent::kSubmitted));
      c.activated += static_cast<double>(p.lifecycle.count(TxnEvent::kActivated));
      c.committed += static_cast<double>(p.lifecycle.count(TxnEvent::kCommitted));
      c.blocked += static_cast<double>(p.lifecycle.count(TxnEvent::kBlocked));
      c.restarted += static_cast<double>(p.lifecycle.count(TxnEvent::kRestarted));
      c.lifecycle += static_cast<double>(p.lifecycle.total());
      c.cc_calls += static_cast<double>(p.cc.calls);
      c.allocs += static_cast<double>(p.allocs);
      c.cc_self_ns += p.cc.SelfNs(clock_ns) * run.speed;
      c.queue_depth +=
          p.services.MeanQueueDepth(run.end_time) /
          static_cast<double>(pass.points.size());
    }
    return c;
  }
  double per_commit(double v) const { return PerCommit(v, commits); }
};

int RunTraced(const Workload& w, uint64_t seed, double seconds,
              const Pins* pins, const std::string& spans_path) {
  Tally tally;
  const int64_t start = HostNowNs();
  // Three quarters of the budget for paired passes, the rest for drivers.
  const int64_t pass_deadline =
      start + static_cast<int64_t>(seconds * 0.75e9);
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const double clock_ns = ClockReadNs();

  // On a workload with engine layers on (audit/obs), their costs come from
  // a chain of untraced passes, each adding one layer: plain, +obs, +audit.
  // cc self time is then traced on the plain configuration, so no audit
  // work done inside cc calls is counted twice.
  const bool chain = w.layers.audit || w.layers.obs;
  const Layers plain{};
  const Layers obs_only{false, w.layers.obs};

  // The reference pass warms up and anchors every check. The loop's first
  // round warms up the traced path and is not timed either.
  Pass reference = RunPass(w, seed, w.layers, false, &tally, "warmup");
  CheckReference(w, seed, reference, pins, &tally);
  std::vector<double> untraced, overhead, audit_delta, obs_delta, cc_self;
  TracedCounts counts;
  TracedCounts cc_counts;
  Pass last_traced;
  for (int round = 0;; ++round) {
    // Passes that are compared run back to back, and each round yields its
    // own differences and ratios, so slow drifts in host speed cancel.
    Pass t = RunPass(w, seed, w.layers, true, &tally, "traced");
    Pass u = RunPass(w, seed, w.layers, false, &tally, "untraced");
    CheckSame(reference, u, &tally, w, "determinism");
    CheckSame(reference, t, &tally, w, "traced vs untraced");
    counts = TracedCounts::Of(t, clock_ns);
    cc_counts = counts;
    double audit_ns = 0.0;
    double obs_ns = 0.0;
    if (chain) {
      Pass b = RunPass(w, seed, obs_only, false, &tally, "obs-only");
      Pass p = RunPass(w, seed, plain, false, &tally, "plain");
      Pass pt = RunPass(w, seed, plain, true, &tally, "plain traced");
      const bool audit_differs = w.layers.audit;
      CheckSame(reference, b, &tally, w, "obs-only", audit_differs);
      CheckSame(reference, p, &tally, w, "plain", audit_differs);
      CheckSame(p, pt, &tally, w, "plain traced vs untraced");
      cc_counts = TracedCounts::Of(pt, clock_ns);
      if (w.layers.audit) {
        audit_ns = u.scaled_ns_per_commit() - b.scaled_ns_per_commit();
      }
      if (w.layers.obs) {
        obs_ns = b.scaled_ns_per_commit() - p.scaled_ns_per_commit();
      }
    }
    if (round > 0) {
      untraced.push_back(u.scaled_ns_per_commit());
      overhead.push_back(t.scaled_ns_per_commit() / u.scaled_ns_per_commit());
      audit_delta.push_back(audit_ns);
      obs_delta.push_back(obs_ns);
      cc_self.push_back(cc_counts.per_commit(cc_counts.cc_self_ns));
    }
    last_traced = std::move(t);
    if (round >= 2 && HostNowNs() >= pass_deadline) break;
  }
  if (!spans_path.empty() && !last_traced.probes.empty() &&
      !last_traced.probes[0]->lifecycle.WriteSpans(spans_path)) {
    tally.Fail("cannot write spans to " + spans_path);
  }

  // Standalone drivers on this workload's parameters, sharing what is left.
  const ccsim::WorkloadParams& params = reference.points[0].params;
  const double driver_s = std::clamp(
      static_cast<double>(deadline - HostNowNs()) * 1e-9 / 5.0, 0.2, 2.0);
  // Scaled to the reference speed like the passes, so the ledger's terms
  // are comparable even when the host changed speed in between.
  auto scaled = [](auto&& driver) {
    const double before = CalibrationNs();
    UnitCost cost = driver();
    const double after = CalibrationNs();
    cost.ns_per_op *= kReferenceCalibrationNs / ((before + after) / 2);
    return cost;
  };
  const UnitCost sim_cost = scaled([&] {
    return TimeSimulator(reference.points[0].pending_events, driver_s, seed);
  });
  const UnitCost lock_cost =
      scaled([&] { return TimeLockManager(params, driver_s, seed); });
  const UnitCost res_inf = scaled([&] {
    return TimeResources(ccsim::ResourceConfig::Infinite(), params, driver_s,
                         seed);
  });
  const UnitCost res_queued = scaled([&] {
    return TimeResources(ccsim::ResourceConfig::Finite(1, 2), params, driver_s,
                         seed);
  });
  const UnitCost wl_cost =
      scaled([&] { return TimeWorkloadGenerator(params, driver_s, seed); });
  const UnitCost& res_cost = w.infinite ? res_inf : res_queued;

  // The ledger, in ns per commit. Each service's kernel event is inside
  // the res unit cost, so the sim term counts only the other events.
  const double untraced_ns = Median(untraced);
  const double services = counts.cpu_services + counts.disk_services;
  const double sim_ns = counts.per_commit(counts.events - services) *
                        sim_cost.ns_per_op;
  const double res_ns = counts.per_commit(services) * res_cost.ns_per_op;
  const double wl_ns = counts.per_commit(counts.submitted) * wl_cost.ns_per_op;
  const double cc_ns = Median(cc_self);
  const double audit_ns = Median(audit_delta);
  const double obs_ns = Median(obs_delta);
  const double glue_ns =
      untraced_ns - (sim_ns + res_ns + wl_ns + cc_ns + audit_ns + obs_ns);

  std::printf("ledger (host ns per simulated commit, %s, %zu timed rounds):\n",
              w.name.c_str(), untraced.size());
  std::printf("  sim    %8.3f events x %9.2f ns        = %10.1f\n",
              counts.per_commit(counts.events - services), sim_cost.ns_per_op,
              sim_ns);
  std::printf("  res    %8.3f services x %9.2f ns      = %10.1f\n",
              counts.per_commit(services), res_cost.ns_per_op, res_ns);
  std::printf("  wl     %8.3f txns x %9.2f ns          = %10.1f\n",
              counts.per_commit(counts.submitted), wl_cost.ns_per_op, wl_ns);
  std::printf("  cc     %8.3f calls, self time in situ   = %10.1f\n",
              cc_counts.per_commit(cc_counts.cc_calls), cc_ns);
  std::printf("  audit  paired passes                    = %10.1f\n", audit_ns);
  std::printf("  obs    paired passes                    = %10.1f\n", obs_ns);
  std::printf("  glue   residual                         = %10.1f\n", glue_ns);
  std::printf("  total  untraced, median of the scaled passes  = %10.1f\n",
              untraced_ns);
  if (glue_ns < 0) {
    std::printf("  MEASUREMENT ERROR: negative glue residual; the layer "
                "costs overlap or a unit cost is too high\n");
  }

  Metrics m;
  m.Add("sim.events_per_commit", counts.per_commit(counts.events), "count");
  m.Add("sim.ns_per_event", sim_cost.ns_per_op, "ns");
  m.Add("sim.ns_per_commit", sim_ns, "ns");
  m.Add("cc.calls_per_commit", cc_counts.per_commit(cc_counts.cc_calls),
        "count");
  m.Add("cc.ns_per_call",
        cc_counts.cc_calls > 0
            ? cc_ns / cc_counts.per_commit(cc_counts.cc_calls)
            : 0.0,
        "ns");
  m.Add("cc.self_ns_per_commit", cc_ns, "ns");
  m.Add("cc.lock_ns_per_request", lock_cost.ns_per_op, "ns");
  m.Add("cc.blocks_per_commit", counts.per_commit(counts.blocked), "count");
  m.Add("cc.restarts_per_commit", counts.per_commit(counts.restarted),
        "count");
  m.Add("cc.useful_ratio",
        counts.activated > 0 ? counts.committed / counts.activated : 0.0,
        "ratio");
  m.Add("res.cpu_services_per_commit", counts.per_commit(counts.cpu_services),
        "count");
  m.Add("res.disk_services_per_commit",
        counts.per_commit(counts.disk_services), "count");
  m.Add("res.ns_per_service.infinite", res_inf.ns_per_op, "ns");
  m.Add("res.ns_per_service.queued", res_queued.ns_per_op, "ns");
  m.Add("res.allocs_per_service", res_cost.allocs_per_op, "count");
  m.Add("res.queue_depth_mean", counts.queue_depth, "requests");
  m.Add("res.ns_per_commit", res_ns, "ns");
  m.Add("wl.txns_per_commit", counts.per_commit(counts.submitted), "count");
  m.Add("wl.ns_per_txn", wl_cost.ns_per_op, "ns");
  m.Add("wl.ns_per_commit", wl_ns, "ns");
  m.Add("core.allocs_per_commit", counts.per_commit(counts.allocs), "count");
  m.Add("core.lifecycle_events_per_commit",
        counts.per_commit(counts.lifecycle), "count");
  m.Add("core.glue_ns_per_commit", glue_ns, "ns");
  double audit_checks = 0;
  for (const PointRun& p : reference.points) {
    audit_checks += static_cast<double>(p.audit_checks);
  }
  m.Add("audit.checks_per_commit", PerCommit(audit_checks, counts.commits),
        "count");
  m.Add("audit.ns_per_commit", audit_ns, "ns");
  m.Add("obs.ns_per_commit", obs_ns, "ns");
  m.Add("trace.overhead_ratio", Median(overhead), "ratio");
  m.Add("ledger.untraced_ns_per_commit", untraced_ns, "ns");
  std::printf("per-layer metrics (clock read %.1f ns subtracted per span):\n",
              clock_ns);
  m.Print();
  tally.PrintResult(m);
  return tally.correct() ? 0 : 1;
}

// --- Self-test and pin writing ---

/// Proves the output check has teeth: a planted decorator that flips one
/// cc grant must fail it, a different seed must change the pinned
/// statistics, and the unplanted traced run must pass it.
int SelfTest(const Pins* pins) {
  const Workload& w = Workloads().front();
  bool all_ok = true;
  auto report = [&](bool ok, const std::string& what, const std::string& why) {
    std::printf("%s %s%s%s\n", ok ? "PASS" : "FAIL", what.c_str(),
                why.empty() ? "" : ": ", why.c_str());
    all_ok = all_ok && ok;
  };
  const PointRun reference = RunPoint(w, 0, kPinnedSeed, w.layers, nullptr);
  report(reference.ok(), "reference point runs clean", reference.error);
  report(CheckPin(pins, w, 0, reference.stats).empty(),
         "reference point matches its pin", CheckPin(pins, w, 0, reference.stats));

  Probes traced;
  const PointRun clean = RunPoint(w, 0, kPinnedSeed, w.layers, &traced);
  report(clean.ok() && CompareStats(reference.stats, clean.stats).empty(),
         "traced run passes the output check", clean.error);

  Probes planted;
  planted.flip_grant_at = 1000;
  const PointRun flipped = RunPoint(w, 0, kPinnedSeed, w.layers, &planted);
  const std::string caught =
      flipped.ok() ? CompareStats(reference.stats, flipped.stats)
                   : flipped.error;
  report(!caught.empty() && !CheckPin(pins, w, 0, flipped.stats).empty(),
         "one flipped grant fails the output check",
         caught.empty() ? "not detected" : "");

  const PointRun other = RunPoint(w, 0, kPinnedSeed + 1, w.layers, nullptr);
  report(other.ok() && !CheckPin(pins, w, 0, other.stats).empty() &&
             !CompareStats(reference.stats, other.stats).empty(),
         "a different seed changes the pinned statistics", other.error);
  return all_ok ? 0 : 1;
}

int WritePins(const std::string& path) {
  std::ofstream out(path);
  out << "# Simulated statistics of every benchmark point at seed "
      << kPinnedSeed << ".\n"
      << "# workload<TAB>algorithm<TAB>stats; rewrite only when a change is\n"
      << "# meant to alter simulated output (ccsim_perfbench --write-pins).\n";
  for (const Workload& w : Workloads()) {
    for (size_t i = 0; i < w.points(); ++i) {
      const PointRun run = RunPoint(w, i, kPinnedSeed, w.layers, nullptr);
      if (!run.ok()) {
        std::fprintf(stderr, "%s: %s\n", PinKey(w, i).c_str(), run.error.c_str());
        return 1;
      }
      out << w.name << '\t' << w.algorithms[i] << '\t' << run.stats.Format()
          << '\n';
    }
  }
  return out ? 0 : 1;
}

// --- Command line ---

struct Options {
  std::string workload;
  uint64_t seed = kPinnedSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string pins_path;
  std::string spans_path;
  std::string rev = "unknown";
  bool self_test = false;
  std::string write_pins;
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: ccsim_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--pins FILE] [--spans FILE] [--rev REV]\n"
               "       ccsim_perfbench --self-test [--pins FILE]\n"
               "       ccsim_perfbench --write-pins FILE\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::atoi(value().c_str());
    } else if (arg == "--pins") {
      opt.pins_path = value();
    } else if (arg == "--spans") {
      opt.spans_path = value();
    } else if (arg == "--rev") {
      opt.rev = value();
    } else if (arg == "--self-test") {
      opt.self_test = true;
    } else if (arg == "--write-pins") {
      opt.write_pins = value();
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!opt.write_pins.empty()) return WritePins(opt.write_pins);
  std::optional<Pins> pins;
  if (!opt.pins_path.empty()) {
    pins = LoadPins(opt.pins_path);
    if (!pins) return Usage(("cannot read pins file " + opt.pins_path).c_str());
  }
  const Pins* pins_ptr = pins ? &*pins : nullptr;
  if (opt.self_test) return SelfTest(pins_ptr);

  const Workload* w = FindWorkload(opt.workload);
  if (w == nullptr) return Usage(("unknown workload " + opt.workload).c_str());
  if (!(opt.seconds > 0) || (opt.trace != 0 && opt.trace != 1)) {
    return Usage("--seconds must be positive and --trace 0 or 1");
  }
  std::printf("provenance: {\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"flags\": \"%s\", \"nproc\": %ld, \"git_rev\": \"%s\", "
              "\"jobs\": 1}\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              sysconf(_SC_NPROCESSORS_ONLN), opt.rev.c_str());
  PrintInput(*w, opt.seed);
  return opt.trace == 0
             ? RunUntraced(*w, opt.seed, opt.seconds, pins_ptr)
             : RunTraced(*w, opt.seed, opt.seconds, pins_ptr, opt.spans_path);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
