#include "core/report.h"

#include <algorithm>
#include <string_view>
#include <type_traits>

#include "inject/fault.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/str.h"

namespace ccsim {
namespace {

using Field = FieldSpec<MetricsReport>;
using At = FieldRef (*)(MetricsReport&);
using Group = bool ReportColumns::*;

// The accessor of `member`; converts to FieldRef (*)(S&) for any struct S.
#define AT(member) [](auto& s) -> FieldRef { return &s.member; }

constexpr Group kAlways = nullptr;
constexpr Group kResponse = &ReportColumns::response;
constexpr Group kPercentiles = &ReportColumns::percentiles;
constexpr Group kRatios = &ReportColumns::ratios;
constexpr Group kDisk = &ReportColumns::disk_util;
constexpr Group kCpu = &ReportColumns::cpu_util;
constexpr Group kMpl = &ReportColumns::avg_mpl;
constexpr Group kBlame = &ReportColumns::blame;

/// A field of the report itself (a view when `key` is nullptr).
constexpr Field F(const char* key, At at, const char* csv = nullptr,
                  Group group = kAlways, const char* label = nullptr,
                  const char* format = nullptr) {
  return {.key = key, .at = at, .csv = csv, .group = group, .label = label,
          .format = format};
}

constexpr Field Stat(const char* key, At at) {
  return {.object = "cc_stats", .key = key, .at = at};
}

/// Per-phase means (seconds per commit); absent from pre-obs journals.
constexpr Field Phase(const char* key, At at, const char* csv = nullptr,
                      const char* label = nullptr) {
  return {.object = "phases", .key = key, .at = at, .may_be_absent = true,
          .csv = csv, .group = &ReportColumns::phases, .label = label,
          .format = "%7.2f"};
}

/// Blame columns join the CSV only when some row collected blame, so plain
/// runs keep the historical 30-column layout byte for byte (the reference
/// CSV diffs in scripts/bench_smoke.sh depend on it).
bool BlameCollected(const MetricsReport& r) { return r.blame.collected; }

/// Blame attribution; absent from journals that predate it.
constexpr Field Blame(const char* key, At at, const char* csv = nullptr,
                      const char* label = nullptr,
                      const char* format = nullptr) {
  return {.object = "blame", .key = key, .at = at, .may_be_absent = true,
          .csv = csv, .csv_if = BlameCollected, .group = kBlame,
          .label = label, .format = format};
}

/// part / whole, with 0/0 (nothing wasted or blocked at all) as 0.
double Fraction(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / whole : 0.0;
}

constexpr Field kReportFields[] = {
    // key / accessor, CSV column, table group, label, format
    F("algorithm", AT(algorithm), "algorithm", kAlways, "algorithm", "%-18s"),
    F("mpl", AT(mpl), "mpl", kAlways, "mpl", "%5lld"),
    F("throughput", AT(throughput), "throughput", kAlways, "thruput", "%9.2f"),
    F(nullptr, AT(throughput.half_width), "throughput_hw", kAlways, "+-90%", "%7.2f"),
    F("response_mean", AT(response_mean), "response_mean", kResponse, "resp(s)", "%8.2f"),
    F("response_stddev", AT(response_stddev), "response_sd", kResponse, "resp_sd", "%8.2f"),
    F("response_p50", AT(response_p50), "response_p50", kPercentiles, "p50", "%7.2f"),
    F("response_p90", AT(response_p90), "response_p90", kPercentiles, "p90", "%7.2f"),
    F("response_p99", AT(response_p99), "response_p99", kPercentiles, "p99", "%7.2f"),
    F("response_max", AT(response_max), "response_max"),
    F("block_ratio", AT(block_ratio), "block_ratio", kRatios, "blk_ratio", "%9.3f"),
    F("restart_ratio", AT(restart_ratio), "restart_ratio", kRatios, "rst_ratio", "%9.3f"),
    F("disk_util_total", AT(disk_util_total), "disk_util_total", kDisk, "d_util", "%7.3f"),
    F("disk_util_useful", AT(disk_util_useful), "disk_util_useful", kDisk, "d_usefl", "%7.3f"),
    F("cpu_util_total", AT(cpu_util_total), "cpu_util_total", kCpu, "c_util", "%7.3f"),
    F("cpu_util_useful", AT(cpu_util_useful), "cpu_util_useful", kCpu, "c_usefl", "%7.3f"),
    F("log_util", AT(log_util)),
    F("avg_active_mpl", AT(avg_active_mpl), "avg_active_mpl", kMpl, "avg_mpl", "%8.1f"),
    F("commits", AT(commits), "commits"),
    F("restarts", AT(restarts), "restarts"),
    F("blocks", AT(blocks), "blocks"),
    F("measured_seconds", AT(measured_seconds), "measured_seconds"),
    F("batches", AT(batches)),
    Stat("deadlocks_detected", AT(cc_stats.deadlocks_detected)),
    Stat("deadlock_victims", AT(cc_stats.deadlock_victims)),
    Stat("lock_conflicts", AT(cc_stats.lock_conflicts)),
    Stat("validation_failures", AT(cc_stats.validation_failures)),
    Stat("wounds", AT(cc_stats.wounds)),
    Stat("timestamp_rejections", AT(cc_stats.timestamp_rejections)),
    F("audited", AT(audited)),
    F("audit_violations", AT(audit_violations)),
    F("audit_checks", AT(audit_checks)),
    F("replay_digest", AT(replay_digest)),
    Phase("collected", AT(phases.collected)),
    Phase("ready", AT(phases.ready), "phase_ready", "ph_rdy"),
    Phase("cc_block", AT(phases.cc_block), "phase_cc_block", "ph_blk"),
    Phase("cpu", AT(phases.cpu), "phase_cpu", "ph_cpu"),
    Phase("disk", AT(phases.disk), "phase_disk", "ph_dsk"),
    Phase("resource_wait", AT(phases.resource_wait), "phase_res_wait", "ph_rwt"),
    Phase("think", AT(phases.think), "phase_think", "ph_thk"),
    Phase("restart_delay", AT(phases.restart_delay), "phase_restart_delay", "ph_rdl"),
    Phase("wasted", AT(phases.wasted), "phase_wasted", "ph_wst"),
    Phase("other", AT(phases.other), "phase_other", "ph_oth"),
    Blame("collected", AT(blame.collected)),
    Blame("wasted_us", AT(blame.wasted_us), "blame_wasted_us"),
    Blame("wasted_attributed_us", AT(blame.wasted_attributed_us), "blame_wasted_attr_us"),
    Blame("wasted_unattributed_us", AT(blame.wasted_unattributed_us)),
    Blame("blocked_us", AT(blame.blocked_us), "blame_blocked_us"),
    Blame("blocked_attributed_us", AT(blame.blocked_attributed_us), "blame_blocked_attr_us"),
    Blame("blocked_unattributed_us", AT(blame.blocked_unattributed_us)),
    Blame("restarts_charged", AT(blame.restarts_charged), "blame_restarts_charged"),
    Blame("blocks_charged", AT(blame.blocks_charged), "blame_blocks_charged"),
    // Attribution fractions: table-only views.
    Blame(nullptr, [](MetricsReport& r) -> FieldRef {
      return Fraction(r.blame.wasted_attributed_us, r.blame.wasted_us);
    }, nullptr, "wst_attr", "%8.3f"),
    Blame(nullptr, [](MetricsReport& r) -> FieldRef {
      return Fraction(r.blame.blocked_attributed_us, r.blame.blocked_us);
    }, nullptr, "blk_attr", "%8.3f"),
    // Journaled before the mean but shown after it, through the view below.
    Blame("genealogy_max", AT(blame.genealogy_max)),
    Blame("genealogy_mean", AT(blame.genealogy_mean), "blame_genealogy_mean", "gen_avg", "%7.2f"),
    Blame(nullptr, AT(blame.genealogy_max), "blame_genealogy_max", "gen_max", "%7lld"),
    Blame("top_aborter", AT(blame.top_aborter)),
    Blame("top_aborter_wasted_us", AT(blame.top_aborter_wasted_us), "blame_top_aborter_us"),
    Blame("top_holder", AT(blame.top_holder)),
    Blame("top_holder_blocked_us", AT(blame.top_holder_blocked_us), "blame_top_holder_us"),
    F("per_class", AT(per_class)),
};

constexpr FieldSpec<IntervalEstimate> kIntervalFields[] = {
    {.key = "mean", .at = AT(mean)},
    {.key = "half_width", .at = AT(half_width)},
    {.key = "batches", .at = AT(batches)},
    {.key = "lag1", .at = AT(lag1_autocorrelation)},
};

constexpr FieldSpec<ClassMetrics> kClassFields[] = {
    {.key = "name", .at = AT(name), .label = "class", .format = "%-12s"},
    {.key = "commits", .at = AT(commits), .label = "commits", .format = "%9lld"},
    {.key = "restarts", .at = AT(restarts), .label = "restarts", .format = "%9lld"},
    {.key = "response_mean", .at = AT(response_mean), .label = "resp(s)", .format = "%8.2f"},
    {.key = "response_stddev", .at = AT(response_stddev), .label = "resp_sd", .format = "%8.2f"},
    {.key = "response_max", .at = AT(response_max), .label = "resp_max", .format = "%8.2f"},
};

#undef AT

constexpr ColumnGroup kColumnGroups[] = {
    {"response", kResponse}, {"percentiles", kPercentiles},
    {"ratios", kRatios},     {"disk", kDisk},
    {"cpu", kCpu},           {"mpl", kMpl},
    {"phases", &ReportColumns::phases}, {"blame", kBlame},
};

/// The header cell of a table column: the label, aligned like the cell
/// format ("%9s" for "%9.2f", "%-18s" for "%-18s").
template <typename S>
std::string HeaderCell(const FieldSpec<S>& field) {
  const std::string_view cell = field.format;
  std::string format(cell.substr(0, cell.find_first_not_of("-0123456789", 1)));
  return StringPrintf((format + 's').c_str(), field.label);
}

/// One output cell of `field`: printf'd with `format` for the table, or in
/// CsvWriter's number format when `format` is null. Integers print as long
/// long (%lld), an interval as its mean.
template <typename S>
std::string Cell(const FieldSpec<S>& field, const S& s, const char* format) {
  return std::visit(
      [format](auto value) -> std::string {
        using T = std::remove_pointer_t<decltype(value)>;
        double real = 0.0;
        if constexpr (std::is_same_v<T, std::string>) {
          return format ? StringPrintf(format, value->c_str()) : *value;
        } else if constexpr (std::is_integral_v<T>) {
          const auto integer = static_cast<long long>(*value);
          return format ? StringPrintf(format, integer)
                        : CsvWriter::Field(int64_t{integer});
        } else if constexpr (std::is_same_v<decltype(value), double>) {
          real = value;  // A derived view.
        } else if constexpr (std::is_same_v<T, double>) {
          real = *value;
        } else if constexpr (std::is_same_v<T, IntervalEstimate>) {
          real = value->mean;
        } else {
          CCSIM_CHECK(false) << "report field type has no output cell";
        }
        return format ? StringPrintf(format, real) : CsvWriter::Field(real);
      },
      field.Get(s));
}

}  // namespace

std::span<const FieldSpec<MetricsReport>> ReportFields() { return kReportFields; }

std::span<const FieldSpec<IntervalEstimate>> IntervalFields() { return kIntervalFields; }

std::span<const FieldSpec<ClassMetrics>> ClassFields() { return kClassFields; }

std::span<const ColumnGroup> ColumnGroups() { return kColumnGroups; }

ReportColumns ReportColumns::Parse(const std::string& spec) {
  ReportColumns columns = ThroughputOnly();
  for (const std::string& token : Split(spec, ',')) {
    if (token.empty()) continue;  // Tolerate "a,,b" / trailing commas.
    bool known = false;
    std::string expected;
    for (const ColumnGroup& group : ColumnGroups()) {
      if (token == group.name || token == "all") {
        columns.*group.flag = true;
        known = true;
      }
      expected += std::string(group.name) + ", ";
    }
    CCSIM_CHECK(known) << "report columns: unknown column group '" << token
                       << "' (expected " << expected << "or all)";
  }
  return columns;
}

ReportColumns ReportColumns::FromEnv(const ReportColumns& defaults) {
  auto spec = GetEnv("CCSIM_REPORT_COLUMNS");
  if (!spec.has_value()) return defaults;
  return Parse(*spec);
}

void PrintReportTable(std::ostream& out, const std::string& title,
                      const std::vector<MetricsReport>& reports,
                      const ReportColumns& requested) {
  const ReportColumns columns = ReportColumns::FromEnv(requested);
  std::vector<const FieldSpec<MetricsReport>*> shown;
  for (const FieldSpec<MetricsReport>& field : ReportFields()) {
    if (field.label != nullptr && (!field.group || columns.*field.group)) {
      shown.push_back(&field);
    }
  }
  std::string header;
  for (const FieldSpec<MetricsReport>* field : shown) {
    if (!header.empty()) header += ' ';
    header += HeaderCell(*field);
  }
  out << "\n== " << title << " ==\n"
      << header << "\n" << std::string(header.size(), '-') << "\n";

  const std::string* last_algorithm = nullptr;
  for (const MetricsReport& r : reports) {
    if (last_algorithm != nullptr && *last_algorithm != r.algorithm) out << "\n";
    last_algorithm = &r.algorithm;
    for (size_t i = 0; i < shown.size(); ++i) {
      out << (i == 0 ? "" : " ") << Cell(*shown[i], r, shown[i]->format);
    }
    out << "\n";
  }
  out.flush();
}

void PrintPerClassTable(std::ostream& out, const std::string& title,
                        const std::vector<MetricsReport>& reports) {
  bool any = false;
  for (const MetricsReport& r : reports) any |= r.per_class.size() > 1;
  if (!any) return;
  // Class rows lead with the report's identifying columns (algorithm, mpl).
  const auto lead = ReportFields().first(2);
  out << "\n== " << title << " (per class) ==\n"
      << HeaderCell(lead[0]) << " " << HeaderCell(lead[1]);
  for (const FieldSpec<ClassMetrics>& field : ClassFields()) {
    out << " " << HeaderCell(field);
  }
  out << "\n";
  for (const MetricsReport& r : reports) {
    if (r.per_class.size() <= 1) continue;
    for (const ClassMetrics& cls : r.per_class) {
      out << Cell(lead[0], r, lead[0].format) << " "
          << Cell(lead[1], r, lead[1].format);
      for (const FieldSpec<ClassMetrics>& field : ClassFields()) {
        out << " " << Cell(field, cls, field.format);
      }
      out << "\n";
    }
  }
  out.flush();
}

bool WriteReportCsv(const std::string& path,
                    const std::vector<MetricsReport>& reports) {
  // Injected CSV-write failure: report it exactly as an unopenable path, so
  // callers exercise their no-CSV degradation (bench/harness.cc counts the
  // failure and skips the .gp) without touching the filesystem.
  if (FaultPoint(FaultSite::kCsvWrite)) return false;
  CsvWriter csv(path);
  if (!csv.ok()) return false;
  std::vector<const FieldSpec<MetricsReport>*> columns;
  std::vector<std::string> row;
  for (const FieldSpec<MetricsReport>& field : ReportFields()) {
    if (field.csv == nullptr) continue;
    bool wanted = field.csv_if == nullptr;
    for (const MetricsReport& r : reports) wanted = wanted || field.csv_if(r);
    if (!wanted) continue;
    columns.push_back(&field);
    row.push_back(field.csv);
  }
  csv.WriteRow(row);
  for (const MetricsReport& r : reports) {
    row.clear();
    for (const FieldSpec<MetricsReport>* field : columns) {
      row.push_back(Cell(*field, r, nullptr));
    }
    csv.WriteRow(row);
  }
  // Finish() flushes and reports stream health, so a write that hit a full
  // disk or a vanished directory fails the call instead of silently
  // producing a truncated CSV.
  return csv.Finish();
}

bool WriteThroughputGnuplot(const std::string& gp_path,
                            const std::string& csv_filename,
                            const std::string& title,
                            const std::vector<MetricsReport>& reports) {
  std::ofstream out(gp_path, std::ios::trunc);
  if (!out.good()) return false;

  // Unique algorithm labels, in first-appearance order; each becomes one
  // plotted series filtered out of the shared CSV by string match.
  std::vector<std::string> algorithms;
  for (const MetricsReport& r : reports) {
    if (std::find(algorithms.begin(), algorithms.end(), r.algorithm) ==
        algorithms.end()) {
      algorithms.push_back(r.algorithm);
    }
  }

  out << "# Generated by ccsim; renders throughput-vs-mpl from "
      << csv_filename << "\n"
      << "set datafile separator ','\n"
      << "set title \"" << title << "\"\n"
      << "set xlabel 'multiprogramming level'\n"
      << "set ylabel 'throughput (transactions/sec)'\n"
      << "set key outside right\n"
      << "set grid\n"
      << "set term pngcairo size 900,600\n"
      << "set output '" << csv_filename << ".png'\n"
      << "plot \\\n";
  for (size_t i = 0; i < algorithms.size(); ++i) {
    out << "  '" << csv_filename << "' using 2:(strcol(1) eq \""
        << algorithms[i] << "\" ? column(3) : 1/0) with linespoints title \""
        << algorithms[i] << "\"";
    out << (i + 1 < algorithms.size() ? ", \\\n" : "\n");
  }
  out.flush();
  return out.good();
}

std::string CsvPathFor(const std::string& name) {
  auto dir = GetEnv("CCSIM_CSV_DIR");
  if (!dir.has_value()) return std::string();
  return *dir + "/" + name + ".csv";
}

}  // namespace ccsim
