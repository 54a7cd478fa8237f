// Generic experiment driver: run any sweep described by a config file (or
// inline key=value overrides) and print/emit the results. This is the
// downstream-user entry point: reproduce any paper figure, or explore a new
// region of the model, without writing C++.
//
//   ./run_config my_experiment.cfg
//   ./run_config algorithms=blocking,mvto mpls=10,50,200 num_cpus=5
//                num_disks=10 hot_fraction_db=0.2 hot_access_prob=0.8
//   (one shell line; shown wrapped here)
//
// `run_config --help` lists every recognized key: the sweep-level keys in
// KnownKeys() below, then every EngineConfig / RunLengths key of the config
// table (core/config_fields.h) except `mpl`, which the sweep sets from
// `mpls`. Any other key, and any value that does not parse, exits 2 with
// "<key>=<value>: <reason>".
//
// --trace[=path] streams the transaction lifecycle trace (one line per
// submit/block/resume/restart/commit) to stderr or to `path` while the sweep
// runs; it forces jobs=1 so lines from different points never interleave.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/config_fields.h"
#include "core/experiment.h"
#include "core/report.h"
#include "inject/fault.h"
#include "obs/trace.h"
#include "util/config.h"
#include "util/str.h"

namespace {

/// The config table key the sweep sets itself, from `mpls`.
constexpr std::string_view kSweptKey = "mpl";

/// The values of run_config's own sweep-level keys, with their defaults.
struct SweepKeys {
  std::string algorithms = "blocking,immediate_restart,optimistic";
  std::vector<int> mpls;  ///< Empty: PaperMplLevels().
  std::string csv, title = "run_config sweep", columns, trace, faults;
  bool percentiles = false;
  bool obs = false;
  double sample_interval = 0.0;
};

/// The sweep-level keys run_config reads itself, into `*k`, with their
/// usage group and hint. Every other key it accepts is a config-table key;
/// anything else is a spelling mistake that would otherwise silently change
/// the experiment being run.
std::vector<ccsim::OwnKey> KnownKeys(SweepKeys* k) {
  return {
      {"algorithms", &k->algorithms, "algorithm", "a,b,..."},
      {"mpls", &k->mpls, "algorithm", "n,m,..."},
      {"csv", &k->csv, "run", "path"}, {"title", &k->title, "run"},
      {"percentiles", &k->percentiles, "run", "true|false"},
      {"columns", &k->columns, "run", "groups"},
      {"obs", &k->obs, "run", "true|false"}, {"trace", &k->trace, "run", "dir"},
      {"sample_interval", &k->sample_interval, "run", "seconds"},
      {"faults", &k->faults, "faults", "plan"},
  };
}

/// The usage text; its key section lists, group by group, KnownKeys() and
/// then the config table's keys.
std::string Usage() {
  std::string usage =
      "usage: run_config [<config-file> | key=value ...] [--audit] [--help]\n"
      "\n"
      "Runs the sweep described by a config file, or by inline key=value\n"
      "overrides. Recognized keys:\n";
  SweepKeys unused;
  std::vector<ccsim::OwnKey> keys = KnownKeys(&unused);
  for (const ccsim::ConfigField& field : ccsim::ConfigFields()) {
    if (field.key == nullptr || field.key == kSweptKey) continue;
    keys.push_back({field.key, {}, field.group, field.hint});
  }
  for (std::string_view group :
       {"workload", "resources", "algorithm", "run", "faults"}) {
    std::string line = ccsim::StringPrintf(
        "  %-12s", (std::string(group) + ":").c_str());
    bool first = true;
    for (const ccsim::OwnKey& key : keys) {
      if (group != key.group) continue;
      std::string word = key.key;
      if (key.hint != nullptr) word += std::string("=") + key.hint;
      if (first) {
        line += word;
        first = false;
      } else if (line.size() + 1 + word.size() > 76) {
        usage += line + "\n";
        line = std::string(14, ' ') + word;
      } else {
        line += " " + word;
      }
    }
    usage += line + "\n";
  }
  usage +=
      "\n"
      "Workload keys are the paper's Table 1 parameters. audit=true enables\n"
      "runtime invariant auditing and the replay digest (docs/AUDIT.md); a\n"
      "violation fails the run. obs=true adds the per-phase response\n"
      "breakdown and the stats registry; trace= (Perfetto trace directory)\n"
      "and sample_interval= (time-series CSVs next to csv=, or in \".\")\n"
      "imply it (docs/OBSERVABILITY.md). faults= installs a fault-injection\n"
      "plan (docs/FAULTS.md; CCSIM_FAULTS overrides); disk_fault= and\n"
      "cpu_fault= add simulated fault windows with kind stall|outage.\n"
      "\n"
      "Flags: --audit (same as audit=true), --faults=<plan> (same as\n"
      "faults=<plan>), --columns=<list> (same as columns=<list>: report table\n"
      "column groups, a typo is a hard error; CCSIM_REPORT_COLUMNS, if set,\n"
      "overrides), --trace[=path] (stream the transaction lifecycle trace\n"
      "to stderr or to <path>; forces jobs=1), --help.\n"
      "Column groups:";
  for (const ccsim::ColumnGroup& column_group : ccsim::ColumnGroups()) {
    usage += std::string(" ") + column_group.name;
  }
  usage +=
      " all.\n"
      "Environment: CCSIM_JOBS, CCSIM_JOURNAL, CCSIM_MAX_EVENTS,\n"
      "CCSIM_POINT_TIMEOUT_SECONDS, CCSIM_OBS, CCSIM_SAMPLE_SECONDS,\n"
      "CCSIM_TRACE, CCSIM_HEARTBEAT_SECONDS, CCSIM_REPORT_COLUMNS,\n"
      "CCSIM_FAULTS and friends (docs/EXECUTION.md, docs/OBSERVABILITY.md,\n"
      "docs/FAULTS.md).\n";
  return usage;
}

}  // namespace

int main(int argc, char** argv) {
  ccsim::Config config;
  std::string error;
  bool lifecycle_trace = false;
  std::string lifecycle_trace_path;
  std::vector<std::string> args(argv + 1, argv + argc);
  args.erase(std::remove_if(args.begin(), args.end(),
                            [&](const std::string& arg) {
                              if (arg == "--trace") {
                                lifecycle_trace = true;
                                return true;
                              }
                              if (ccsim::StartsWith(arg, "--trace=")) {
                                lifecycle_trace = true;
                                lifecycle_trace_path =
                                    arg.substr(std::string("--trace=").size());
                                return true;
                              }
                              return false;
                            }),
             args.end());
  for (std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      std::cout << Usage();
      return 0;
    }
    if (arg == "--audit") {
      arg = "audit=true";
    } else if (ccsim::StartsWith(arg, "--faults=")) {
      arg = arg.substr(2);  // --faults=SPEC is sugar for faults=SPEC.
    } else if (ccsim::StartsWith(arg, "--columns=")) {
      arg = arg.substr(2);  // --columns=LIST is sugar for columns=LIST.
    } else if (ccsim::StartsWith(arg, "--")) {
      std::cerr << "unknown flag: " << arg << "\n\n" << Usage();
      return 2;
    }
  }

  // A single non-key=value argument is a config file path.
  if (args.size() == 1 && args[0].find('=') == std::string::npos) {
    std::ifstream in(args[0]);
    if (!in.good()) {
      std::cerr << "cannot open config file " << args[0] << "\n";
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!config.ParseText(text.str(), &error)) {
      std::cerr << args[0] << ": " << error << "\n";
      return 1;
    }
  } else if (!config.ParseArgs(args, &error)) {
    std::cerr << error << "\n\n" << Usage();
    return 2;
  }

  // Every key is one of KnownKeys() or goes through the config table;
  // run_config's own defaults are the run lengths and the sweep keys.
  ccsim::SweepConfig sweep;
  sweep.lengths = {10, 15 * ccsim::kSecond, 30 * ccsim::kSecond};
  SweepKeys keys;
  ccsim::Status status = ccsim::ApplyConfigOverrides(
      config, &sweep.base, &sweep.lengths, KnownKeys(&keys));
  if (status.ok()) {
    status = ccsim::RejectSweptKeys(config, {kSweptKey},
                                    "swept by this program; use mpls");
  }
  if (status.ok() && keys.sample_interval < 0.0) {
    status = ccsim::BadValue("sample_interval",
                             *config.GetString("sample_interval"),
                             "must be >= 0");
  }
  // Fault-injection plan (docs/FAULTS.md). Installed before the sweep so
  // sites fire from the first point; CCSIM_FAULTS, if also set, overrides
  // when the runner reads the environment.
  if (status.ok() && !keys.faults.empty()) {
    ccsim::StatusOr<ccsim::FaultPlan> plan =
        ccsim::FaultPlan::Parse(keys.faults);
    if (plan.ok()) {
      ccsim::InstallFaultPlan(*plan);
    } else {
      status = ccsim::BadValue("faults", keys.faults, plan.status().message());
    }
  }
  if (!status.ok()) {
    std::cerr << status.message() << "\n\n" << Usage();
    return 2;
  }
  sweep.algorithms = ccsim::Split(keys.algorithms, ',');
  sweep.mpls = keys.mpls.empty() ? ccsim::PaperMplLevels() : keys.mpls;
  sweep.lengths = ccsim::RunLengths::FromEnv(sweep.lengths);

  sweep.base.obs.enabled = keys.obs;
  if (!keys.trace.empty()) {
    sweep.base.obs.enabled = true;
    sweep.base.obs.trace_dir = keys.trace;
  }
  if (keys.sample_interval > 0.0) {
    sweep.base.obs.enabled = true;
    sweep.base.obs.sample_interval = ccsim::FromSeconds(keys.sample_interval);
    // Time-series CSVs land next to the sweep CSV, or in the cwd.
    auto slash = keys.csv.find_last_of('/');
    sweep.base.obs.sample_dir =
        slash == std::string::npos ? "." : keys.csv.substr(0, slash);
  }

  std::unique_ptr<std::ofstream> trace_file;
  std::unique_ptr<ccsim::StreamTraceSink> trace_sink;
  if (lifecycle_trace) {
    std::ostream* out = &std::cerr;
    if (!lifecycle_trace_path.empty()) {
      trace_file = std::make_unique<std::ofstream>(lifecycle_trace_path,
                                                   std::ios::trunc);
      if (!trace_file->good()) {
        std::cerr << "cannot open trace file " << lifecycle_trace_path << "\n";
        return 1;
      }
      out = trace_file.get();
    }
    trace_sink = std::make_unique<ccsim::StreamTraceSink>(out);
    sweep.base.lifecycle_sink = trace_sink.get();
    // One worker: lifecycle lines from concurrent points would interleave
    // into an unreadable (and nondeterministically ordered) stream.
    sweep.jobs = 1;
  }

  // The checked runner: a failed point (bad parameter combination, check
  // trip, watchdog budget) is reported and skipped while the rest of the
  // sweep still completes and prints.
  ccsim::SweepOutcome outcome =
      ccsim::RunSweepChecked(sweep, [](const ccsim::PointResult& point) {
        if (point.ok()) {
          std::cerr << "  " << point.report.algorithm
                    << " mpl=" << point.report.mpl << ": "
                    << point.report.throughput.mean << " tps"
                    << (point.from_journal ? " [journal]" : "") << "\n";
        } else {
          std::cerr << "  " << point.config.algorithm
                    << " mpl=" << point.config.workload.mpl
                    << ": FAILED: " << point.status.ToString() << "\n";
        }
      });
  auto reports = outcome.SuccessfulReports();

  int64_t audit_violations = 0;
  for (const ccsim::MetricsReport& r : reports) {
    if (!r.audited) continue;
    audit_violations += r.audit_violations;
    std::cerr << "  [audit] " << r.algorithm << " mpl=" << r.mpl << ": "
              << r.audit_checks << " checks, " << r.audit_violations
              << " violation(s), digest " << std::hex << r.replay_digest
              << std::dec << "\n";
  }

  // columns= replaces the default column set (CCSIM_REPORT_COLUMNS, applied
  // inside PrintReportTable, still wins when set). A typo in the list is a
  // hard error, same as the env knob.
  ccsim::ReportColumns columns;
  if (!keys.columns.empty()) {
    columns = ccsim::ReportColumns::Parse(keys.columns);
  } else {
    columns.percentiles = keys.percentiles;
  }
  ccsim::PrintReportTable(std::cout, keys.title, reports, columns);

  if (!keys.csv.empty()) {
    if (!ccsim::WriteReportCsv(keys.csv, reports)) {
      std::cerr << "failed to write " << keys.csv << "\n";
      return 1;
    }
    std::cout << "(csv: " << keys.csv << ")\n";
  }
  if (audit_violations > 0) {
    std::cerr << "audit: " << audit_violations << " invariant violation(s)\n";
    return 2;
  }
  if (!outcome.ok()) {
    std::cerr << "sweep completed with failures:\n" << outcome.FailureSummary();
    return 1;
  }
  return 0;
}
