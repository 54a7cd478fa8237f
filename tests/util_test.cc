// Unit tests for util: string helpers, config parsing, CSV, env, the ring
// queue.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/chunked_free_list.h"
#include "util/config.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/ring_queue.h"
#include "util/str.h"

namespace ccsim {
namespace {

TEST(StrTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  abc  "), "abc");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("\t a b \n"), "a b");
}

TEST(StrTest, SplitBasic) {
  auto fields = Split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(StrTest, SplitKeepsEmptyFields) {
  auto fields = Split(",a,,b,", ',');
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0], "");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[4], "");
}

TEST(StrTest, SplitNoSeparator) {
  auto fields = Split("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

TEST(StrTest, ParseIntValid) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_EQ(ParseInt(" 100 ").value(), 100);
  EXPECT_EQ(ParseInt("0").value(), 0);
}

TEST(StrTest, ParseIntInvalid) {
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("abc").has_value());
  EXPECT_FALSE(ParseInt("42x").has_value());
  EXPECT_FALSE(ParseInt("4.2").has_value());
}

TEST(StrTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("7").value(), 7.0);
  // Subnormals read back exactly; only overflow and underflow to zero fail.
  EXPECT_EQ(ParseDouble("4.9406564584124654e-324").value(),
            std::numeric_limits<double>::denorm_min());
}

TEST(StrTest, ParseDoubleInvalid) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("1.2.3").has_value());
  EXPECT_FALSE(ParseDouble("x").has_value());
  EXPECT_FALSE(ParseDouble("1e999").has_value());
  EXPECT_FALSE(ParseDouble("1e-999").has_value());
}

TEST(StrTest, ParseBool) {
  EXPECT_TRUE(ParseBool("true").value());
  EXPECT_TRUE(ParseBool("TRUE").value());
  EXPECT_TRUE(ParseBool("1").value());
  EXPECT_FALSE(ParseBool("false").value());
  EXPECT_FALSE(ParseBool("0").value());
  EXPECT_FALSE(ParseBool("maybe").has_value());
}

TEST(StrTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StringPrintf("empty"), "empty");
}

TEST(StrTest, StartsWith) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(ConfigTest, ParseTextBasic) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.ParseText("a = 1\nb=hello\n# comment\n\nc = 2.5", &error));
  EXPECT_EQ(config.GetString("a").value(), "1");
  EXPECT_EQ(config.GetString("b").value(), "hello");
  EXPECT_EQ(config.GetString("c").value(), "2.5");
}

TEST(ConfigTest, ParseTextInlineComment) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.ParseText("a = 1 # trailing", &error));
  EXPECT_EQ(config.GetString("a").value(), "1");
}

TEST(ConfigTest, ParseTextMalformed) {
  Config config;
  std::string error;
  EXPECT_FALSE(config.ParseText("just a line without equals", &error));
  EXPECT_FALSE(error.empty());
}

TEST(ConfigTest, ParseArgs) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.ParseArgs({"mpl=25", "write_prob=0.5"}, &error));
  EXPECT_EQ(config.GetString("mpl").value(), "25");
  EXPECT_EQ(config.GetString("write_prob").value(), "0.5");
}

TEST(ConfigTest, ParseArgsMalformed) {
  Config config;
  std::string error;
  EXPECT_FALSE(config.ParseArgs({"justakey"}, &error));
}

TEST(ConfigTest, MissingKeysReturnNullopt) {
  Config config;
  EXPECT_FALSE(config.GetString("absent").has_value());
  EXPECT_FALSE(config.Has("absent"));
}

TEST(ConfigTest, LastSetWins) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.ParseArgs({"k=1", "k=2"}, &error));
  EXPECT_EQ(config.GetString("k").value(), "2");
}

TEST(CsvTest, WritesQuotedFields) {
  std::string path = testing::TempDir() + "/ccsim_csv_test.csv";
  {
    CsvWriter csv(path);
    ASSERT_TRUE(csv.ok());
    csv.WriteRow({"plain", "with,comma", "with\"quote"});
    csv.WriteRow({CsvWriter::Field(1.5), CsvWriter::Field(int64_t{42})});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "plain,\"with,comma\",\"with\"\"quote\"");
  EXPECT_EQ(line2, "1.5,42");
}

TEST(EnvTest, UnsetReturnsFallback) {
  unsetenv("CCSIM_TEST_UNSET");
  EXPECT_FALSE(GetEnv("CCSIM_TEST_UNSET").has_value());
  EXPECT_EQ(GetEnvInt("CCSIM_TEST_UNSET", 3), 3);
  EXPECT_DOUBLE_EQ(GetEnvDouble("CCSIM_TEST_UNSET", 2.5), 2.5);
}

TEST(EnvTest, SetValueParsed) {
  setenv("CCSIM_TEST_SET", "17", 1);
  EXPECT_EQ(GetEnvInt("CCSIM_TEST_SET", 3), 17);
  setenv("CCSIM_TEST_SET", "2.25", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("CCSIM_TEST_SET", 0.0), 2.25);
  unsetenv("CCSIM_TEST_SET");
}

TEST(EnvTest, EmptyTreatedAsUnset) {
  setenv("CCSIM_TEST_EMPTY", "", 1);
  EXPECT_FALSE(GetEnv("CCSIM_TEST_EMPTY").has_value());
  unsetenv("CCSIM_TEST_EMPTY");
}

// A set-but-malformed knob is a hard, clearly worded error — a silently
// ignored CCSIM_BATCHES=12abc would run a different experiment than asked.
TEST(EnvDeathTest, MalformedIntegerIsAHardError) {
  setenv("CCSIM_BATCHES", "12abc", 1);
  EXPECT_DEATH(GetEnvInt("CCSIM_BATCHES", 20),
               "malformed environment variable CCSIM_BATCHES=\"12abc\"");
  unsetenv("CCSIM_BATCHES");
}

TEST(EnvDeathTest, MalformedDoubleIsAHardError) {
  setenv("CCSIM_BATCH_SECONDS", "fifteen", 1);
  EXPECT_DEATH(GetEnvDouble("CCSIM_BATCH_SECONDS", 15.0),
               "malformed environment variable "
               "CCSIM_BATCH_SECONDS=\"fifteen\"");
  unsetenv("CCSIM_BATCH_SECONDS");
}

TEST(EnvDeathTest, ErrorNamesTheDefaultToFallBackTo) {
  setenv("CCSIM_TEST_BAD", "1.5.2", 1);
  EXPECT_DEATH(GetEnvDouble("CCSIM_TEST_BAD", 7.5),
               "unset it to use the default \\(7.5\\)");
  unsetenv("CCSIM_TEST_BAD");
}

TEST(CsvWriterTest, FinishReportsFullDevice) {
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  CsvWriter csv("/dev/full");
  ASSERT_TRUE(csv.ok()) << "open succeeds; only the flush can fail";
  for (int i = 0; i < 4096; ++i) {
    csv.WriteRow({"spill", CsvWriter::Field(static_cast<int64_t>(i))});
  }
  EXPECT_FALSE(csv.Finish()) << "ENOSPC must surface, not vanish";
}

TEST(CsvWriterTest, FinishOkOnHealthyFile) {
  std::string path = ::testing::TempDir() + "/csv_finish_ok.csv";
  CsvWriter csv(path);
  ASSERT_TRUE(csv.ok());
  csv.WriteRow({"a", "b"});
  EXPECT_TRUE(csv.Finish());
  std::remove(path.c_str());
}

std::vector<int> Contents(const RingQueue<int>& q) {
  std::vector<int> out;
  for (size_t i = 0; i < q.size(); ++i) out.push_back(q[i]);
  return out;
}

TEST(RingQueueTest, FifoAcrossWrapAroundAndGrowth) {
  RingQueue<int> q;
  q.Reserve(4);
  int next_in = 0, next_out = 0;
  // Keep 3 items in a ring of (at least) 4 for many cycles: the head wraps.
  for (int i = 0; i < 3; ++i) q.PushBack(next_in++);
  for (int i = 0; i < 50; ++i) {
    q.PushBack(next_in++);
    EXPECT_EQ(q.EraseAt(0), next_out++);
  }
  // Grow past the reservation with the head mid-ring: order survives.
  for (int i = 0; i < 20; ++i) q.PushBack(next_in++);
  EXPECT_EQ(q.size(), 23u);
  while (!q.empty()) EXPECT_EQ(q.EraseAt(0), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(RingQueueTest, EraseAtKeepsTheOrderOfTheRest) {
  RingQueue<int> q;
  for (int i = 0; i < 6; ++i) q.PushBack(i);
  EXPECT_EQ(q.EraseAt(0), 0);  // Head wraps past slot 0 on the next pushes.
  q.PushBack(6);
  EXPECT_EQ(q.EraseAt(3), 4);
  EXPECT_EQ(Contents(q), (std::vector<int>{1, 2, 3, 5, 6}));
  EXPECT_EQ(q.EraseAt(4), 6);
  EXPECT_EQ(Contents(q), (std::vector<int>{1, 2, 3, 5}));
}

struct TestSlot {
  int value = 0;
  uint32_t next = 0;
};

TEST(ChunkedFreeListTest, ReusesReleasedSlotsLastInFirstOut) {
  ChunkedFreeList<TestSlot> store;
  const uint32_t a = store.Acquire();
  const uint32_t b = store.Acquire();
  const uint32_t c = store.Acquire();
  EXPECT_EQ(store.size(), 3u);
  store.Release(a);
  store.Release(c);
  EXPECT_EQ(store.Acquire(), c);
  EXPECT_EQ(store.Acquire(), a);
  EXPECT_EQ(store.Acquire(), 3u);  // Free list empty: the store grows.
  EXPECT_EQ(store.size(), 4u);
  EXPECT_NE(b, a);
}

TEST(ChunkedFreeListTest, SlotsDoNotMoveWhenTheStoreGrows) {
  ChunkedFreeList<TestSlot> store;
  const uint32_t first = store.Acquire();
  TestSlot* address = &store[first];
  address->value = 42;
  for (int i = 0; i < 1000; ++i) store[store.Acquire()].value = i;
  EXPECT_EQ(&store[first], address);
  EXPECT_EQ(store[first].value, 42);
  EXPECT_EQ(store.size(), 1001u);
  EXPECT_EQ(store[1000].value, 999);
}

}  // namespace
}  // namespace ccsim
