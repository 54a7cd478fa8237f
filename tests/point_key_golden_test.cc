// Golden journal point keys, captured before EngineConfig's fields were
// described by one table:
//   * tests/data/point_keys.tsv — HashPointKey of one base config with each
//     field perturbed one at a time;
//   * tests/data/cfg_journal_keys.tsv — the (key, seed) pairs run_config
//     appends to CCSIM_JOURNAL for every examples/configs/*.cfg under
//     CCSIM_BATCHES=2 CCSIM_BATCH_SECONDS=1 CCSIM_WARMUP_SECONDS=1.
// Both are reproduced through ApplyConfigOverrides. A reordered, dropped or
// re-encoded fold changes some row, and so does an override that parses
// into a different value than it used to. Either would orphan every
// existing journal.
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config_fields.h"
#include "core/experiment.h"
#include "core/journal.h"
#include "util/config.h"
#include "util/str.h"

namespace ccsim {
namespace {

std::string DataPath(const std::string& name) {
  return std::string(CCSIM_TEST_DATA_DIR) + "/" + name;
}

/// The non-comment lines of a golden file.
std::vector<std::string> GoldenRows(const std::string& name) {
  std::ifstream in(DataPath(name));
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::vector<std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') rows.push_back(line);
  }
  return rows;
}

/// journal_test's FastBase, with audit pinned off so that builds which flip
/// the audit default share the goldens.
EngineConfig FastBase() {
  EngineConfig config;
  config.workload.db_size = 200;
  config.workload.tran_size = 4;
  config.workload.min_size = 2;
  config.workload.max_size = 6;
  config.workload.num_terms = 10;
  config.workload.mpl = 5;
  config.workload.obj_io = FromMillis(5);
  config.workload.obj_cpu = FromMillis(2);
  config.resources = ResourceConfig::Finite(1, 2);
  config.seed = 3;
  config.audit = false;
  return config;
}

RunLengths FastLengths() {
  RunLengths lengths;
  lengths.batches = 3;
  lengths.batch_length = 4 * kSecond;
  lengths.warmup = 2 * kSecond;
  return lengths;
}

/// One golden row: its fields, split on tabs.
std::vector<std::string> Columns(const std::string& row) {
  return Split(row, '\t');
}

/// The rows whose field no override key reaches ("-" overrides) make their
/// change directly; `base` changes nothing.
void SetKeyless(const std::string& name, EngineConfig* config) {
  if (name == "classes") {
    config->workload.classes = {TxnClass{"update", 0.7, 5, 2, 8, 0.5},
                                TxnClass{"query", 0.3, 4, 2, 6, 0.0}};
  } else if (name == "algorithm") {
    config->algorithm = "optimistic";
  } else if (name == "group_commit_window") {
    config->group_commit_window = FromMillis(5);
  } else if (name == "lock_granule_size") {
    config->lock_granule_size = 4;
  } else if (name == "record_history") {
    config->record_history = true;
  } else {
    ASSERT_EQ(name, "base") << "no direct change for golden row " << name;
  }
}

TEST(PointKeyGoldenTest, EachPerturbedFieldKeepsItsKey) {
  std::set<std::string> covered;  // Keys and keyless rows the golden hits.
  for (const std::string& row : GoldenRows("point_keys.tsv")) {
    const std::vector<std::string> columns = Columns(row);
    ASSERT_EQ(columns.size(), 3u) << row;
    EngineConfig config = FastBase();
    RunLengths lengths = FastLengths();
    if (columns[1] == "-") {
      SetKeyless(columns[0], &config);
      covered.insert(columns[0]);
    } else {
      Config overrides;
      std::string error;
      ASSERT_TRUE(overrides.ParseArgs(Split(columns[1], ' '), &error)) << row;
      const Status status =
          ApplyConfigOverrides(overrides, &config, &lengths);
      ASSERT_TRUE(status.ok()) << row << ": " << status.ToString();
      for (const auto& [key, value] : overrides.entries()) covered.insert(key);
    }
    EXPECT_EQ(std::to_string(HashPointKey(config, lengths)), columns[2])
        << "point key of golden row " << columns[0] << " changed";
  }
  // The golden perturbs every field of the table: each key, and each of
  // the five keyless fields SetKeyless knows.
  size_t keyless = 0;
  for (const ConfigField& field : ConfigFields()) {
    if (field.key == nullptr) {
      ++keyless;
    } else {
      EXPECT_TRUE(covered.count(field.key)) << field.key;
    }
  }
  EXPECT_EQ(keyless, 5u) << "a new keyless field needs a golden row";
  for (const char* field :
       {"classes", "algorithm", "group_commit_window", "lock_granule_size",
        "record_history"}) {
    EXPECT_TRUE(covered.count(field)) << field;
  }
}

TEST(PointKeyGoldenTest, ConfigFilesKeepTheirJournalKeys) {
  std::vector<std::string> rows;
  std::vector<std::string> files;
  for (const std::string& row : GoldenRows("cfg_journal_keys.tsv")) {
    const std::string file = Columns(row)[0];
    if (files.empty() || files.back() != file) files.push_back(file);
  }
  for (const std::string& file : files) {
    std::ifstream in(std::string(CCSIM_EXAMPLE_CONFIG_DIR) + "/" + file);
    ASSERT_TRUE(in.good()) << file;
    std::stringstream text;
    text << in.rdbuf();
    Config config;
    std::string error;
    ASSERT_TRUE(config.ParseText(text.str(), &error)) << file << ": " << error;

    EngineConfig base;
    base.audit = false;
    RunLengths lengths;
    // run_config's own sweep-level keys that the example files use.
    std::string title, algorithms = "blocking,immediate_restart,optimistic";
    std::vector<int> mpls = {5, 10, 25, 50, 75, 100, 200};
    bool percentiles = false;
    const OwnKey sweep_keys[] = {{"title", &title},
                                 {"algorithms", &algorithms},
                                 {"mpls", &mpls},
                                 {"percentiles", &percentiles}};
    const Status status =
        ApplyConfigOverrides(config, &base, &lengths, sweep_keys);
    ASSERT_TRUE(status.ok()) << file << ": " << status.ToString();
    // The CCSIM_BATCHES / CCSIM_BATCH_SECONDS / CCSIM_WARMUP_SECONDS values
    // the golden was captured under; they replace whatever the file sets.
    lengths = {2, kSecond, kSecond};

    const std::vector<std::string> names = Split(algorithms, ',');
    const std::vector<uint64_t> seeds =
        DeriveSeeds(base.seed, names.size() * mpls.size());
    size_t index = 0;
    for (const std::string& algorithm : names) {
      for (int mpl : mpls) {
        EngineConfig point = base;
        point.algorithm = algorithm;
        point.workload.mpl = mpl;
        rows.push_back(file + "\t" +
                       std::to_string(HashPointKey(point, lengths)) + "\t" +
                       std::to_string(seeds[index++]));
      }
    }
  }
  EXPECT_EQ(rows, GoldenRows("cfg_journal_keys.tsv"));
}

}  // namespace
}  // namespace ccsim
