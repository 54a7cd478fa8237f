// Tests for util/json: escaping, exact number round-trips, the u64 string
// form, and the reader's strictness.
#include "util/json.h"

#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace ccsim::json {
namespace {

Value Parsed(const std::string& text) {
  Value value;
  EXPECT_TRUE(Parse(text, &value)) << text;
  return value;
}

TEST(JsonEscapeTest, QuotesBackslashAndControlCharacters) {
  EXPECT_EQ(Quote("plain"), "\"plain\"");
  EXPECT_EQ(Quote("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(Quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(Quote("l1\nl2\r\t"), "\"l1\\nl2\\r\\t\"");
  EXPECT_EQ(Quote(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
  EXPECT_EQ(Quote(std::string("nul\0byte", 8)), "\"nul\\u0000byte\"");
  EXPECT_EQ(Quote("caf\xc3\xa9"), "\"caf\xc3\xa9\"") << "UTF-8 passes through";
}

TEST(JsonEscapeTest, EveryByteRoundTripsThroughTheReader) {
  std::string all;
  for (int c = 1; c < 0x80; ++c) all.push_back(static_cast<char>(c));
  all.push_back('\0');
  Value value = Parsed(Quote(all));
  std::string back;
  ASSERT_TRUE(Read(&value, &back));
  EXPECT_EQ(back, all);
}

TEST(JsonNumberTest, DoublesRoundTripBitExactly) {
  for (double x : {0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, -2.5e-300, 6.02214076e23,
                   DBL_MAX, DBL_MIN, std::numeric_limits<double>::denorm_min(),
                   0.035343540360664241}) {
    std::string text;
    AppendDouble(&text, x);
    Value value = Parsed(text);
    double back = 1.0;
    ASSERT_TRUE(Read(&value, &back)) << text;
    EXPECT_EQ(std::memcmp(&back, &x, sizeof(x)), 0) << text;
  }
}

TEST(JsonNumberTest, OutOfRangeDoublesAreRejected) {
  double out = 7.0;
  Value value = Parsed("1e999");
  EXPECT_FALSE(Read(&value, &out));
  value = Parsed("1e-999");
  EXPECT_FALSE(Read(&value, &out));
  value = Parsed("1.2.3");
  EXPECT_FALSE(Read(&value, &out));
  EXPECT_EQ(out, 7.0) << "a failed read leaves the target untouched";
}

TEST(JsonNumberTest, IntegersAreRangeChecked) {
  int narrow = 0;
  int64_t wide = 0;
  Value value = Parsed("4294967301");
  EXPECT_FALSE(Read(&value, &narrow)) << "must not wrap to 5";
  EXPECT_TRUE(Read(&value, &wide));
  EXPECT_EQ(wide, 4294967301);
  value = Parsed("-2147483648");
  EXPECT_TRUE(Read(&value, &narrow));
  EXPECT_EQ(narrow, INT32_MIN);
  value = Parsed("2.5");
  EXPECT_FALSE(Read(&value, &wide)) << "not an integer";
  value = Parsed("9223372036854775808");
  EXPECT_FALSE(Read(&value, &wide)) << "past INT64_MAX";
}

TEST(JsonU64Test, FullRangeAsDecimalString) {
  for (uint64_t x : {uint64_t{0}, uint64_t{1} << 53, (uint64_t{1} << 53) + 1,
                     UINT64_MAX}) {
    std::string text;
    AppendU64(&text, x);
    EXPECT_EQ(text.front(), '"');
    Value value = Parsed(text);
    uint64_t back = 0;
    ASSERT_TRUE(Read(&value, &back)) << text;
    EXPECT_EQ(back, x);
  }
}

TEST(JsonU64Test, RejectsSignsWhitespaceOverflowAndNumbers) {
  uint64_t out = 42;
  for (const char* text :
       {"\"-1\"", "\"+1\"", "\" 1\"", "\"1 \"", "\"\"", "\"0x10\"",
        "\"18446744073709551616\"", "7"}) {
    Value value = Parsed(text);
    EXPECT_FALSE(Read(&value, &out)) << text;
  }
  EXPECT_EQ(out, 42u);
}

TEST(JsonReaderTest, ParsesNestedValuesAndFindsMembers) {
  Value root = Parsed(" {\"a\": [1, \"two\", null, false], \"b\": {}} ");
  ASSERT_EQ(root.kind, Value::Kind::kObject);
  const Value* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 4u);
  EXPECT_EQ(a->array[2].kind, Value::Kind::kNull);
  bool flag = true;
  EXPECT_TRUE(Read(&a->array[3], &flag));
  EXPECT_FALSE(flag);
  EXPECT_EQ(root.Find("missing"), nullptr);
  EXPECT_EQ(a->Find("a"), nullptr) << "an array has no members";
  int64_t n = 0;
  EXPECT_FALSE(Read(root.Find("missing"), &n));
}

TEST(JsonReaderTest, RejectsMalformedAndTruncatedText) {
  Value value;
  for (const char* text :
       {"", "{", "{\"a\":1", "{\"a\" 1}", "[1,]", "{\"a\":1}x", "\"open",
        "\"bad \\q escape\"", "\"\\u00e9\"", "tru", "nul"}) {
    EXPECT_FALSE(Parse(text, &value)) << text;
  }
}

}  // namespace
}  // namespace ccsim::json
