// Human-readable tables and CSV dumps of experiment sweeps. Each bench
// binary prints one table per figure it reproduces.
#ifndef CCSIM_CORE_REPORT_H_
#define CCSIM_CORE_REPORT_H_

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/metrics.h"

namespace ccsim {

/// Which optional columns to print (throughput, mpl, algorithm are always
/// shown).
struct ReportColumns {
  bool response = true;
  bool ratios = true;
  bool disk_util = true;
  bool cpu_util = false;
  bool avg_mpl = true;
  bool percentiles = false;  ///< Response-time p50/p90/p99.
  bool phases = false;       ///< Per-phase response breakdown (obs runs).
  bool blame = false;        ///< Blame attribution summary (obs runs).

  static ReportColumns ThroughputOnly() {
    return ReportColumns{false, false, false, false,
                         false, false, false, false};
  }

  /// Parses a comma-separated column-group spec (response, percentiles,
  /// ratios, disk, cpu, mpl, phases, blame, or all) into a ReportColumns
  /// starting from ThroughputOnly(). An unknown token is a hard error — a
  /// typo must not silently drop a column. Shared by the
  /// CCSIM_REPORT_COLUMNS env knob and the `columns=` config key.
  static ReportColumns Parse(const std::string& spec);

  /// Applies the CCSIM_REPORT_COLUMNS env knob: when set, Parse()s it and
  /// *replaces* `defaults`; unset, returns `defaults` unchanged.
  static ReportColumns FromEnv(const ReportColumns& defaults);
};

/// A typed pointer to one stored field, or a derived view's value.
using FieldRef =
    std::variant<std::string*, int*, int64_t*, uint64_t*, double*, bool*,
                 IntervalEstimate*, std::vector<ClassMetrics>*, double>;

/// One field of struct S, written down once (docs/OBSERVABILITY.md, "Adding
/// a report metric"): its journal key and the JSON object it nests in, its
/// CSV column, its table column and an accessor. The table, the CSV,
/// ReportColumns::Parse and the sweep journal iterate the field tables and
/// name no field themselves. An entry without a `key` is a view: a column
/// that shows a stored sub-field or a derived value but is not journaled.
template <typename S>
struct FieldSpec {
  const char* object = "";    ///< JSON object the key nests in; "" = S.
  const char* key = nullptr;  ///< Journal key; nullptr for a view.
  FieldRef (*at)(S&) = nullptr;  ///< The field (read-only for output).
  /// Journals written before `object` existed lack it; loading leaves the
  /// field at its default. A present object must hold every key.
  bool may_be_absent = false;
  const char* csv = nullptr;  ///< CSV column; nullptr = not in the CSV.
  /// When set, the CSV column appears only if this holds for some row.
  bool (*csv_if)(const S&) = nullptr;
  /// Table column group; nullptr = always shown (when `label` is set).
  bool ReportColumns::*group = nullptr;
  const char* label = nullptr;   ///< Table header; nullptr = not in the table.
  const char* format = nullptr;  ///< Cell format; integers are long long.

  /// The field of a const struct, for output (nothing writes through it).
  FieldRef Get(const S& s) const { return at(const_cast<S&>(s)); }
};

/// MetricsReport's fields in journal order; CSV and table columns follow
/// the same order.
std::span<const FieldSpec<MetricsReport>> ReportFields();
/// The members of every IntervalEstimate object in the journal.
std::span<const FieldSpec<IntervalEstimate>> IntervalFields();
/// One per_class entry (journal) and one per-class table row.
std::span<const FieldSpec<ClassMetrics>> ClassFields();

/// A report table column group: its ReportColumns::Parse name and flag.
struct ColumnGroup {
  const char* name;
  bool ReportColumns::*flag;
};
/// Every group, in table order.
std::span<const ColumnGroup> ColumnGroups();

/// Prints a fixed-width table of the sweep, algorithm-major, with the
/// throughput confidence half-width in a ± column.
void PrintReportTable(std::ostream& out, const std::string& title,
                      const std::vector<MetricsReport>& reports,
                      const ReportColumns& columns = ReportColumns());

/// Prints the per-class breakdown of each report (skips single-class
/// reports, which the main table already covers).
void PrintPerClassTable(std::ostream& out, const std::string& title,
                        const std::vector<MetricsReport>& reports);

/// Writes the sweep as CSV (all metrics, one row per point). Returns false
/// if the file could not be opened.
bool WriteReportCsv(const std::string& path,
                    const std::vector<MetricsReport>& reports);

/// Resolves the CSV output path for a bench: "$CCSIM_CSV_DIR/<name>.csv", or
/// empty when CCSIM_CSV_DIR is unset (no CSV requested).
std::string CsvPathFor(const std::string& name);

/// Writes a gnuplot script that renders throughput-vs-mpl curves (one per
/// algorithm appearing in `reports`) from the CSV previously written next to
/// it. `csv_filename` is the bare file name the script references (scripts
/// are meant to run from inside the output directory).
bool WriteThroughputGnuplot(const std::string& gp_path,
                            const std::string& csv_filename,
                            const std::string& title,
                            const std::vector<MetricsReport>& reports);

}  // namespace ccsim

#endif  // CCSIM_CORE_REPORT_H_
