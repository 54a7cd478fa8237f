// Tests for the crash-safe sweep journal: keying, exact round-trips,
// truncated-line tolerance, and journal-backed resume through the checked
// point runner (docs/EXECUTION.md, "Crash-safe resume").
#include "core/journal.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "util/json.h"

namespace ccsim {
namespace {

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
  return config;
}

RunLengths FastLengths() {
  RunLengths lengths;
  lengths.batches = 3;
  lengths.batch_length = 4 * kSecond;
  lengths.warmup = 2 * kSecond;
  return lengths;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string DataPath(const std::string& name) {
  return std::string(CCSIM_TEST_DATA_DIR) + "/" + name;
}

/// An obs-on, audited, two-class point, so that the phases, blame and
/// per_class parts of its report all carry data.
EngineConfig ObsMultiClass() {
  EngineConfig config = FastBase();
  config.workload.db_size = 100;
  config.workload.write_prob = 0.4;
  config.workload.classes = {TxnClass{"update", 0.7, 5, 2, 8, 0.5},
                             TxnClass{"query", 0.3, 4, 2, 6, 0.0}};
  config.audit = true;
  config.obs.enabled = true;
  return config;
}

TEST(HashPointKeyTest, StableForSameInputs) {
  EXPECT_EQ(HashPointKey(FastBase(), FastLengths()),
            HashPointKey(FastBase(), FastLengths()));
}

TEST(HashPointKeyTest, SensitiveToEveryInterestingKnob) {
  const uint64_t base_key = HashPointKey(FastBase(), FastLengths());

  EngineConfig config = FastBase();
  config.workload.mpl = 6;
  EXPECT_NE(HashPointKey(config, FastLengths()), base_key);

  config = FastBase();
  config.algorithm = "optimistic";
  EXPECT_NE(HashPointKey(config, FastLengths()), base_key);

  config = FastBase();
  config.workload.write_prob = 0.5;
  EXPECT_NE(HashPointKey(config, FastLengths()), base_key);

  config = FastBase();
  config.restart_delay_mode = RestartDelayMode::kNone;
  EXPECT_NE(HashPointKey(config, FastLengths()), base_key);

  config = FastBase();
  config.audit = !config.audit;
  EXPECT_NE(HashPointKey(config, FastLengths()), base_key);

  RunLengths lengths = FastLengths();
  lengths.batches = 4;
  EXPECT_NE(HashPointKey(FastBase(), lengths), base_key);

  lengths = FastLengths();
  lengths.warmup = 3 * kSecond;
  EXPECT_NE(HashPointKey(FastBase(), lengths), base_key);
}

TEST(HashPointKeyTest, PinnedValue) {
  // A reordered or dropped fold would silently orphan every existing
  // journal. The same key heads tests/data/journal_pre_obs.jsonl.
  EXPECT_EQ(HashPointKey(FastBase(), FastLengths()), 2481505833875882662ull);
}

TEST(HashPointKeyTest, SeedDoesNotParticipate) {
  EngineConfig reseeded = FastBase();
  reseeded.seed = 999;
  EXPECT_EQ(HashPointKey(reseeded, FastLengths()),
            HashPointKey(FastBase(), FastLengths()))
      << "the seed keys journal entries separately from the config hash";
}

TEST(SweepJournalTest, RoundTripsAReportExactly) {
  std::string path = TempPath("journal_roundtrip.jsonl");
  std::remove(path.c_str());

  EngineConfig config = ObsMultiClass();
  MetricsReport original = RunOnePoint(config, FastLengths());
  ASSERT_TRUE(original.phases.collected && original.blame.collected);
  ASSERT_EQ(original.per_class.size(), 2u);
  uint64_t key = HashPointKey(config, FastLengths());
  {
    SweepJournal journal(path);
    EXPECT_EQ(journal.entry_count(), 0u);
    ASSERT_TRUE(journal.Append(key, config.seed, original).ok());
    EXPECT_EQ(journal.entry_count(), 1u);
    const MetricsReport* found = journal.Find(key, config.seed);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, original);
  }
  // A fresh process (fresh journal object) sees the identical report.
  SweepJournal reloaded(path);
  EXPECT_EQ(reloaded.entry_count(), 1u);
  EXPECT_EQ(reloaded.skipped_lines(), 0u);
  const MetricsReport* found = reloaded.Find(key, config.seed);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, original)
      << "every field, doubles included, must round-trip bit-exactly";
  EXPECT_EQ(reloaded.Find(key, config.seed + 1), nullptr);
  EXPECT_EQ(reloaded.Find(key + 1, config.seed), nullptr);
  std::remove(path.c_str());
}

TEST(SweepJournalTest, ToleratesTruncatedTrailingLine) {
  std::string path = TempPath("journal_truncated.jsonl");
  std::remove(path.c_str());

  EngineConfig config = FastBase();
  MetricsReport report = RunOnePoint(config, FastLengths());
  uint64_t key = HashPointKey(config, FastLengths());
  {
    SweepJournal journal(path);
    ASSERT_TRUE(journal.Append(key, config.seed, report).ok());
    ASSERT_TRUE(journal.Append(key, config.seed + 1, report).ok());
  }
  // Simulate a SIGKILL mid-append: chop the file mid-way into its last line.
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::string contents = buffer.str();
  ASSERT_GT(contents.size(), 40u);
  std::ofstream out(path, std::ios::trunc);
  out << contents.substr(0, contents.size() - 37);
  out.close();

  SweepJournal journal(path);
  EXPECT_EQ(journal.entry_count(), 1u) << "the intact first line survives";
  EXPECT_EQ(journal.skipped_lines(), 1u) << "the truncated line is skipped";
  EXPECT_NE(journal.Find(key, config.seed), nullptr);
  EXPECT_EQ(journal.Find(key, config.seed + 1), nullptr)
      << "the truncated point must re-run";
  std::remove(path.c_str());
}

TEST(SweepJournalTest, GarbageLinesAreSkippedNotFatal) {
  std::string path = TempPath("journal_garbage.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "this is not json\n"
        << "{\"key\":\"1\",\"seed\":\"2\"}\n"  // Parses, but no report.
        << "\n";                               // Blank lines are ignored.
    // A valid line, then the same report with out-of-range integers. A
    // narrowing read would load mpl 2^32 + 5 as 5, and strtoull alone would
    // load seed "-1" as 2^64 - 1; both must count as unparsable instead.
    std::ifstream golden(DataPath("journal_pre_obs.jsonl"));
    std::string line;
    ASSERT_TRUE(std::getline(golden, line));
    out << line << "\n";
    const std::string mpl = "\"mpl\":5,";
    ASSERT_NE(line.find(mpl), std::string::npos);
    std::string wide_mpl = line;
    wide_mpl.replace(line.find(mpl), mpl.size(), "\"mpl\":4294967301,");
    out << wide_mpl << "\n";
    const std::string seed = "\"seed\":\"3\"";
    ASSERT_NE(line.find(seed), std::string::npos);
    std::string negative_seed = line;
    negative_seed.replace(line.find(seed), seed.size(), "\"seed\":\"-1\"");
    out << negative_seed << "\n";
  }
  SweepJournal journal(path);
  EXPECT_EQ(journal.entry_count(), 1u) << "only the valid line loads";
  EXPECT_EQ(journal.skipped_lines(), 4u);
  EXPECT_EQ(journal.Find(HashPointKey(FastBase(), FastLengths()), UINT64_MAX),
            nullptr);
  std::remove(path.c_str());
}

// --- Golden lines captured from an earlier build (tests/data/) -----------

TEST(SweepJournalGoldenTest, ObsMultiClassLinesReserializeByteForByte) {
  // Each line holds an obs-on, audited, two-class report. Loading it and
  // appending the loaded report must write the identical line back: the
  // journal format is unchanged and every field survives the round trip.
  const std::string golden = ReadFile(DataPath("journal_obs_multiclass.jsonl"));
  ASSERT_FALSE(golden.empty());
  SweepJournal loaded(DataPath("journal_obs_multiclass.jsonl"));
  ASSERT_EQ(loaded.skipped_lines(), 0u);
  std::string path = TempPath("journal_golden_rewrite.jsonl");
  std::remove(path.c_str());
  {
    SweepJournal rewritten(path);
    std::istringstream lines(golden);
    std::string line;
    while (std::getline(lines, line)) {
      json::Value root;
      uint64_t key = 0;
      uint64_t seed = 0;
      ASSERT_TRUE(json::Parse(line, &root));
      ASSERT_TRUE(json::Read(root.Find("key"), &key));
      ASSERT_TRUE(json::Read(root.Find("seed"), &seed));
      const MetricsReport* report = loaded.Find(key, seed);
      ASSERT_NE(report, nullptr);
      EXPECT_TRUE(report->phases.collected && report->blame.collected);
      EXPECT_EQ(report->per_class.size(), 2u);
      ASSERT_TRUE(rewritten.Append(key, seed, *report).ok());
    }
  }
  EXPECT_EQ(ReadFile(path), golden);
  std::remove(path.c_str());
}

TEST(SweepJournalGoldenTest, PreObservabilityLineLoads) {
  // Written before the phases and blame objects existed.
  SweepJournal journal(DataPath("journal_pre_obs.jsonl"));
  EXPECT_EQ(journal.skipped_lines(), 0u);
  ASSERT_EQ(journal.entry_count(), 1u);
  const MetricsReport* report =
      journal.Find(HashPointKey(FastBase(), FastLengths()), FastBase().seed);
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->commits, 128);
  EXPECT_EQ(report->phases, PhaseBreakdown());
  EXPECT_EQ(report->blame, BlameBreakdown());
  ASSERT_EQ(report->per_class.size(), 1u);
  EXPECT_EQ(report->per_class[0].name, "default");
}

TEST(SweepJournalTest, AppendToFullDeviceReportsDataLoss) {
  // /dev/full takes the open but fails every flush with ENOSPC.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  SweepJournal journal("/dev/full");
  MetricsReport report = RunOnePoint(FastBase(), FastLengths());
  Status status = journal.Append(1, 2, report);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(JournalResumeTest, SecondRunReusesEveryPoint) {
  std::string path = TempPath("journal_resume_full.jsonl");
  std::remove(path.c_str());
  setenv("CCSIM_JOURNAL", path.c_str(), 1);

  std::vector<EngineConfig> configs = {FastBase(), FastBase()};
  configs[1].algorithm = "optimistic";
  SweepOutcome first = RunPointsChecked(configs, FastLengths(), /*jobs=*/2);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.points[0].from_journal);
  EXPECT_FALSE(first.points[1].from_journal);

  SweepOutcome second = RunPointsChecked(configs, FastLengths(), /*jobs=*/2);
  unsetenv("CCSIM_JOURNAL");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.points[0].from_journal);
  EXPECT_TRUE(second.points[1].from_journal);
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(first.points[i].report, second.points[i].report)
        << "journaled point " << i << " must be byte-for-byte the original";
  }
  std::remove(path.c_str());
}

TEST(JournalResumeTest, InterruptedSweepResumesBitIdentical) {
  // The kill-and-resume property, in miniature: run a 3-point sweep to
  // completion (the reference), then replay it from a journal that holds
  // only a *truncated* prefix — as if the process died mid-append on point 2
  // — and require bit-identical results.
  std::string path = TempPath("journal_resume_partial.jsonl");
  std::remove(path.c_str());

  SweepConfig sweep;
  sweep.base = FastBase();
  sweep.algorithms = {"blocking", "optimistic"};
  sweep.mpls = {3, 5};
  sweep.lengths = FastLengths();
  sweep.jobs = 2;

  SweepOutcome reference = RunSweepChecked(sweep);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference.points.size(), 4u);

  // First (interrupted) run: journal everything, then chop the tail so the
  // journal holds one intact line (whichever point completed first — lines
  // append in completion order) plus a torn fragment.
  setenv("CCSIM_JOURNAL", path.c_str(), 1);
  RunSweepChecked(sweep);
  {
    std::ifstream in(path);
    std::string first_line;
    ASSERT_TRUE(std::getline(in, first_line));
    in.close();
    std::ofstream out(path, std::ios::trunc);
    out << first_line << "\n"
        << first_line.substr(0, first_line.size() / 2);  // Torn append.
  }

  // The resumed run: reuses the journaled point, re-runs the rest.
  SweepOutcome resumed = RunSweepChecked(sweep);
  unsetenv("CCSIM_JOURNAL");
  ASSERT_TRUE(resumed.ok());
  int journal_hits = 0;
  for (const PointResult& point : resumed.points) {
    if (point.from_journal) ++journal_hits;
  }
  EXPECT_EQ(journal_hits, 1);
  for (size_t i = 0; i < reference.points.size(); ++i) {
    EXPECT_EQ(reference.points[i].report, resumed.points[i].report)
        << "resumed point " << i
        << " must match the uninterrupted reference exactly";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccsim
