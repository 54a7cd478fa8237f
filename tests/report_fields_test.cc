// Tests for the MetricsReport field tables (core/report.h): the
// tables' own invariants, and byte-identical report tables and CSVs against
// golden files captured from an earlier build (tests/data/).
#include "core/report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/journal.h"
#include "util/check.h"
#include "util/json.h"

namespace ccsim {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string DataPath(const std::string& name) {
  return std::string(CCSIM_TEST_DATA_DIR) + "/" + name;
}

/// The reports of a golden journal, in line order.
std::vector<MetricsReport> LoadReports(const std::string& name) {
  SweepJournal journal(DataPath(name));
  EXPECT_EQ(journal.skipped_lines(), 0u);
  std::vector<MetricsReport> reports;
  std::istringstream lines(ReadFile(DataPath(name)));
  std::string line;
  while (std::getline(lines, line)) {
    json::Value root;
    uint64_t key = 0;
    uint64_t seed = 0;
    EXPECT_TRUE(json::Parse(line, &root) && json::Read(root.Find("key"), &key) &&
                json::Read(root.Find("seed"), &seed));
    const MetricsReport* report = journal.Find(key, seed);
    EXPECT_NE(report, nullptr);
    if (report != nullptr) reports.push_back(*report);
  }
  return reports;
}

TEST(ReportFieldsTest, JournalObjectsAreContiguousAndKeysUnique) {
  std::set<std::string> closed_objects;
  std::set<std::string> keys;
  std::string open;
  for (const FieldSpec<MetricsReport>& field : ReportFields()) {
    EXPECT_NE(field.at, nullptr);
    if (field.key == nullptr) {
      EXPECT_TRUE(field.csv != nullptr || field.label != nullptr)
          << "a view that is not shown anywhere";
      continue;
    }
    if (field.object != open) {
      if (!open.empty()) closed_objects.insert(open);
      open = field.object;
      EXPECT_EQ(closed_objects.count(open), 0u)
          << "object '" << open << "' split across the table";
    }
    EXPECT_TRUE(keys.insert(open + "." + field.key).second)
        << "duplicate journal key " << open << "." << field.key;
  }
}

TEST(ReportFieldsTest, CsvNamesAndTableLabelsAreUnique) {
  std::set<std::string> csv;
  std::set<std::string> labels;
  for (const FieldSpec<MetricsReport>& field : ReportFields()) {
    if (field.csv != nullptr) {
      EXPECT_TRUE(csv.insert(field.csv).second) << field.csv;
    }
    if (field.label != nullptr) {
      EXPECT_NE(field.format, nullptr) << field.label;
      EXPECT_TRUE(labels.insert(field.label).second) << field.label;
    }
  }
}

/// The printf conversion a table cell of `value`'s type needs.
std::string ConversionFor(const FieldRef& value) {
  return std::visit(
      [](auto v) -> std::string {
        using T = std::remove_pointer_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) return "s";
        if constexpr (std::is_integral_v<T>) return "lld";
        return "f";
      },
      value);
}

template <typename S>
void ExpectFormatsMatchTypes(std::span<const FieldSpec<S>> fields) {
  S sample{};
  for (const FieldSpec<S>& field : fields) {
    if (field.label == nullptr) continue;
    const std::string format = field.format;
    const std::string conversion = ConversionFor(field.Get(sample));
    EXPECT_EQ(format.substr(format.size() - conversion.size()), conversion)
        << field.label << ": a mismatched printf conversion is undefined";
  }
}

TEST(ReportFieldsTest, TableFormatsMatchFieldTypes) {
  ExpectFormatsMatchTypes(ReportFields());
  ExpectFormatsMatchTypes(ClassFields());
}

TEST(ReportFieldsTest, UnknownGroupErrorListsEveryGroup) {
  std::string message;
  {
    ScopedCheckTrap trap;
    try {
      ReportColumns::Parse("response,percentile");
    } catch (const CheckFailure& failure) {
      message = failure.what();
    }
  }
  EXPECT_NE(message.find("unknown column group 'percentile'"),
            std::string::npos)
      << message;
  for (const ColumnGroup& group : ColumnGroups()) {
    EXPECT_NE(message.find(group.name), std::string::npos) << group.name;
  }
  EXPECT_NE(message.find("or all"), std::string::npos) << message;
}

// --- Golden output ---------------------------------------------------------

TEST(ReportGoldenTest, TablesForEveryColumnGroupAreByteIdentical) {
  unsetenv("CCSIM_REPORT_COLUMNS");
  const std::vector<MetricsReport> reports =
      LoadReports("journal_obs_multiclass.jsonl");
  ASSERT_EQ(reports.size(), 3u);
  std::ostringstream out;
  PrintReportTable(out, "throughput only", reports,
                   ReportColumns::ThroughputOnly());
  PrintReportTable(out, "defaults", reports, ReportColumns());
  for (const char* spec : {"response", "percentiles", "ratios", "disk", "cpu",
                           "mpl", "phases", "blame", "all"}) {
    PrintReportTable(out, std::string("columns=") + spec, reports,
                     ReportColumns::Parse(spec));
  }
  PrintPerClassTable(out, "classes", reports);
  EXPECT_EQ(out.str(), ReadFile(DataPath("report_tables.txt")));
}

TEST(ReportGoldenTest, ObsCsvWithBlameColumnsIsByteIdentical) {
  const std::vector<MetricsReport> reports =
      LoadReports("journal_obs_multiclass.jsonl");
  const std::string path = ::testing::TempDir() + "/golden_blame.csv";
  ASSERT_TRUE(WriteReportCsv(path, reports));
  EXPECT_EQ(ReadFile(path), ReadFile(DataPath("report_blame.csv")));
  std::remove(path.c_str());
}

TEST(ReportGoldenTest, PlainCsvKeepsThirtyColumns) {
  const std::vector<MetricsReport> reports =
      LoadReports("journal_pre_obs.jsonl");
  ASSERT_EQ(reports.size(), 1u);
  const std::string path = ::testing::TempDir() + "/golden_plain.csv";
  ASSERT_TRUE(WriteReportCsv(path, reports));
  const std::string csv = ReadFile(path);
  EXPECT_EQ(csv, ReadFile(DataPath("report_plain.csv")));
  EXPECT_EQ(std::count(csv.begin(), csv.begin() + csv.find('\n'), ','), 29);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccsim
