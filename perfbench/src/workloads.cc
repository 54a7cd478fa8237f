#include "workloads.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "sim/time.h"

namespace perfbench {

using ccsim::EngineConfig;
using ccsim::FromSeconds;
using ccsim::MetricsReport;
using ccsim::ResourceConfig;
using ccsim::RunLengths;

namespace {

RunLengths Lengths(double warmup_s, int batches, double batch_s) {
  RunLengths lengths;
  lengths.warmup = FromSeconds(warmup_s);
  lengths.batches = batches;
  lengths.batch_length = FromSeconds(batch_s);
  return lengths;
}

std::vector<Workload> BuildWorkloads() {
  const std::vector<std::string> paper = {"blocking", "immediate_restart",
                                          "optimistic"};
  std::vector<Workload> all;
  all.push_back({"lowconf_inf",
                 "Fig 3 point: rare conflicts, pure-delay services, so the "
                 "kernel, engine glue, the infinite service path and wl do "
                 "the work and cc does little",
                 {"blocking"}, 10000, 50, true, {}, Lengths(10, 10, 50), {}});
  all.push_back({"hiconf_inf",
                 "right end of Fig 5: db_size=1000, mpl=200, three "
                 "algorithms; lock table, deadlock search, validation and "
                 "wasted incarnations carry the load while res stays a pure "
                 "delay",
                 paper, 1000, 200, true, {}, Lengths(10, 10, 10),
                 // Fig 5: with infinite resources, restarts cost nothing
                 // but time, so the more optimistic the algorithm, the
                 // higher its throughput at high mpl.
                 {{"optimistic", "immediate_restart"},
                  {"immediate_restart", "blocking"}}});
  all.push_back({"hiconf_finite",
                 "Fig 8 point: hiconf_inf's cc load on 1 CPU and 2 disks, so "
                 "the queued res path works; compared with hiconf_inf it "
                 "isolates res",
                 paper, 1000, 200, false, {}, Lengths(100, 10, 150),
                 // Fig 8: with 1 CPU and 2 disks, wasted work costs
                 // resources, so the optimistic algorithm falls to last.
                 {{"blocking", "optimistic"},
                  {"immediate_restart", "optimistic"}}});
  all.push_back({"lowconf_audited",
                 "lowconf_inf with audit and obs on: the only workload where "
                 "the audit and obs layers run",
                 {"blocking"}, 10000, 50, true, {true, true},
                 Lengths(10, 10, 10), {}});
  return all;
}

}  // namespace

double Workload::SimSecondsPerPoint() const {
  return ccsim::ToSeconds(lengths.warmup +
                          lengths.batch_length * lengths.batches);
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = BuildWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

EngineConfig PointConfig(const Workload& workload, size_t index, uint64_t seed,
                         Layers layers) {
  // Table 1 defaults (WorkloadParams) except the two knobs the figures vary.
  EngineConfig config;
  config.workload.db_size = workload.db_size;
  config.workload.mpl = workload.mpl;
  config.resources = workload.infinite ? ResourceConfig::Infinite()
                                       : ResourceConfig::Finite(1, 2);
  config.algorithm = workload.algorithms[index];
  config.seed = ccsim::DeriveSeeds(seed, workload.points())[index];
  config.audit = layers.audit;
  config.obs.enabled = layers.obs;
  return config;
}

std::string SimStats::Format() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "commits=%" PRId64 " restarts=%" PRId64 " blocks=%" PRId64
                " lifetime_commits=%" PRId64 " events=%" PRIu64
                " throughput=%.17g response=%.17g digest=%016" PRIx64
                " violations=%" PRId64,
                commits, restarts, blocks, lifetime_commits, events,
                throughput, response, digest, audit_violations);
  return buf;
}

SimStats CollectStats(const MetricsReport& report, const ccsim::Simulator& sim,
                      const ccsim::ClosedSystem& system) {
  SimStats stats;
  stats.commits = report.commits;
  stats.restarts = report.restarts;
  stats.blocks = report.blocks;
  stats.lifetime_commits = system.total_commits();
  stats.events = sim.events_fired();
  stats.throughput = report.throughput.mean;
  stats.response = report.response_mean.mean;
  stats.digest = report.replay_digest;
  stats.audit_violations = report.audit_violations;
  return stats;
}

std::string CheckPoint(const EngineConfig& config, const MetricsReport& report,
                       const SimStats& stats) {
  if (report.algorithm != config.algorithm) {
    return "report names algorithm " + report.algorithm;
  }
  if (stats.commits <= 0 || stats.lifetime_commits < stats.commits ||
      stats.events == 0) {
    return "no measured commits: " + stats.Format();
  }
  // Batches have equal length, so the batch-means throughput is exactly
  // commits over measured time (up to rounding).
  const double expected =
      static_cast<double>(stats.commits) / report.measured_seconds;
  if (!(std::fabs(stats.throughput - expected) <= 1e-9 * expected)) {
    return "throughput disagrees with commits/time: " + stats.Format();
  }
  if (!(stats.response > 0.0) || !std::isfinite(stats.response)) {
    return "bad response time: " + stats.Format();
  }
  if (config.audit) {
    if (!report.audited || report.audit_checks <= 0) {
      return "audited point ran no audit checks";
    }
    if (stats.audit_violations != 0 || stats.digest == 0) {
      return "audit failed: " + stats.Format();
    }
  }
  return "";
}

std::string CheckPaperShape(const Workload& workload,
                            const std::vector<SimStats>& points) {
  auto throughput = [&](const std::string& algorithm) {
    for (size_t i = 0; i < workload.points(); ++i) {
      if (workload.algorithms[i] == algorithm) return points[i].throughput;
    }
    return 0.0;
  };
  for (const auto& [a, b] : workload.faster) {
    if (!(throughput(a) > throughput(b))) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s throughput %.4f tps is not above %s's %.4f tps",
                    a.c_str(), throughput(a), b.c_str(), throughput(b));
      return buf;
    }
  }
  return "";
}

}  // namespace perfbench
