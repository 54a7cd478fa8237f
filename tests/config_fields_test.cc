// Tests for the config field table (core/config_fields.h): every keyed row
// sets exactly its own field, every folding row moves the point key, and a
// bad override comes back as one "<key>=<value>: <reason>" error instead of
// an abort or a silent drop.
#include "core/config_fields.h"

#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/journal.h"
#include "util/config.h"
#include "util/str.h"

namespace ccsim {
namespace {

/// A small config that satisfies every row's `needs`: open source (for
/// arrival_rate), a fixed restart delay (for fixed_delay_s), finite pools
/// (for num_cpus / num_disks).
EngineConfig NeedsMetBase() {
  EngineConfig config;
  config.workload.db_size = 200;
  config.workload.tran_size = 4;
  config.workload.min_size = 2;
  config.workload.max_size = 6;
  config.resources = ResourceConfig::Finite(1, 2);
  config.source_mode = SourceMode::kOpen;
  config.restart_delay_mode = RestartDelayMode::kFixed;
  config.fixed_restart_delay = kSecond;
  return config;
}

/// One field's value, printed; equal strings mean equal values.
std::string Render(ConfigRef ref) {
  return std::visit(
      [](auto* value) -> std::string {
        using T = std::remove_pointer_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return *value;
        } else if constexpr (std::is_same_v<T, double>) {
          return StringPrintf("%.17g", *value);
        } else if constexpr (std::is_same_v<T,
                                            std::optional<RestartDelayMode>>) {
          return value->has_value() ? std::to_string(static_cast<int>(**value))
                                    : "unset";
        } else if constexpr (std::is_same_v<T, FaultWindow>) {
          return StringPrintf("%d:%lld:%lld", static_cast<int>(value->kind),
                              static_cast<long long>(value->start),
                              static_cast<long long>(value->end));
        } else if constexpr (std::is_same_v<T, std::vector<TxnClass>>) {
          std::string names;
          for (const TxnClass& cls : *value) names += cls.name + ",";
          return names;
        } else if constexpr (std::is_same_v<T, std::vector<int>>) {
          std::string items;
          for (int item : *value) items += std::to_string(item) + ",";
          return items;
        } else {
          return std::to_string(static_cast<long long>(*value));
        }
      },
      ref);
}

/// Every table field of (config, lengths), rendered in table order.
std::vector<std::string> Snapshot(const EngineConfig& config,
                                  const RunLengths& lengths) {
  std::vector<std::string> values;
  for (const ConfigField& field : ConfigFields()) {
    values.push_back(Render(field.Get(config, lengths)));
  }
  return values;
}

/// Moves the field behind `ref` to a different value and returns that value
/// spelled as its override (in the key's unit, or by enum name).
std::string Perturb(const ConfigField& field, ConfigRef ref) {
  return std::visit(
      [&field](auto* value) -> std::string {
        using T = std::remove_pointer_t<decltype(value)>;
        if constexpr (std::is_same_v<T, bool>) {
          *value = !*value;
          return *value ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double>) {
          *value += 0.125;
          return StringPrintf("%.17g", *value);
        } else if constexpr (std::is_same_v<T, std::string>) {
          *value += "x";
          return *value;
        } else if constexpr (std::is_enum_v<T>) {
          const std::vector<std::string> names = Split(field.hint, '|');
          *value = static_cast<T>((static_cast<size_t>(*value) + 1) %
                                  names.size());
          return names[static_cast<size_t>(*value)];
        } else if constexpr (std::is_same_v<T,
                                            std::optional<RestartDelayMode>>) {
          const std::vector<std::string> names = Split(field.hint, '|');
          const size_t next =
              value->has_value()
                  ? (static_cast<size_t>(**value) + 1) % names.size()
                  : 0;
          *value = static_cast<RestartDelayMode>(next);
          return names[next];
        } else if constexpr (std::is_same_v<T, FaultWindow>) {
          *value = {FaultWindowKind::kOutage, kSecond, 3 * kSecond};
          return "outage:1:3";
        } else if constexpr (std::is_same_v<T, std::vector<TxnClass>>) {
          value->push_back(TxnClass{});
          return "";
        } else if constexpr (std::is_same_v<T, std::vector<int>>) {
          value->push_back(1);
          return "";
        } else if (field.unit != 0) {
          *value += field.unit;
          return StringPrintf("%.17g", static_cast<double>(*value) /
                                           static_cast<double>(field.unit));
        } else {
          *value += 1;
          return std::to_string(*value);
        }
      },
      ref);
}

ConfigRef Ref(const ConfigField& field, EngineConfig* config,
              RunLengths* lengths) {
  return field.at ? field.at(*config) : field.run_at(*lengths);
}

Status Apply(const std::vector<std::string>& args, EngineConfig* config,
             RunLengths* lengths, std::span<const OwnKey> own_keys = {}) {
  Config overrides;
  std::string error;
  EXPECT_TRUE(overrides.ParseArgs(args, &error)) << error;
  return ApplyConfigOverrides(overrides, config, lengths, own_keys);
}

/// The message of applying `args` to the base config; "" when it applies.
std::string ErrorOf(const std::vector<std::string>& args) {
  EngineConfig config = NeedsMetBase();
  config.source_mode = SourceMode::kClosed;
  config.restart_delay_mode.reset();
  RunLengths lengths;
  const Status status = Apply(args, &config, &lengths);
  if (!status.ok()) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  return status.message();
}

TEST(ConfigFieldsTest, EachKeySetsExactlyItsField) {
  const EngineConfig base = NeedsMetBase();
  const RunLengths base_lengths;
  for (const ConfigField& field : ConfigFields()) {
    if (field.key == nullptr) continue;
    EngineConfig want = base;
    RunLengths want_lengths = base_lengths;
    const std::string text = Perturb(field, Ref(field, &want, &want_lengths));
    if (field.then != nullptr) field.then(want);

    EngineConfig got = base;
    RunLengths got_lengths = base_lengths;
    const Status status =
        Apply({std::string(field.key) + "=" + text}, &got, &got_lengths);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(Snapshot(got, got_lengths), Snapshot(want, want_lengths))
        << field.key << "=" << text;
    EXPECT_NE(Snapshot(got, got_lengths), Snapshot(base, base_lengths))
        << field.key << "=" << text << " changed nothing";
  }
}

TEST(ConfigFieldsTest, FoldingFieldsMoveThePointKeyAndTheSeedDoesNot) {
  const EngineConfig base = NeedsMetBase();
  const RunLengths base_lengths;
  const uint64_t base_key = HashPointKey(base, base_lengths);
  for (const ConfigField& field : ConfigFields()) {
    EngineConfig config = base;
    RunLengths lengths = base_lengths;
    Perturb(field, Ref(field, &config, &lengths));
    const char* name = field.key ? field.key : "(keyless)";
    if (field.folds) {
      EXPECT_NE(HashPointKey(config, lengths), base_key) << name;
    } else {
      EXPECT_EQ(HashPointKey(config, lengths), base_key) << name;
    }
  }
}

TEST(ConfigFieldsTest, KeysAreUniqueAndKeyedRowsHaveAGroup) {
  std::vector<std::string> keys;
  for (const ConfigField& field : ConfigFields()) {
    EXPECT_NE(field.at == nullptr, field.run_at == nullptr);
    if (field.key == nullptr) continue;
    EXPECT_NE(field.group, nullptr) << field.key;
    for (const std::string& seen : keys) EXPECT_NE(seen, field.key);
    keys.push_back(field.key);
  }
}

TEST(ConfigFieldsTest, MalformedValuesAreErrors) {
  EXPECT_EQ(ErrorOf({"db_size=abc"}), "db_size=abc: not an integer");
  EXPECT_EQ(ErrorOf({"write_prob=half"}),
            "write_prob=half: not a finite number");
  EXPECT_EQ(ErrorOf({"write_prob=nan"}), "write_prob=nan: not a finite number");
  EXPECT_EQ(ErrorOf({"audit=maybe"}), "audit=maybe: not true|false");
  for (const char* window : {"stall:1", "melt:1:2", "none:1:2", "stall:3:1",
                             "outage:-1:2", "stall:x:2"}) {
    const std::string key_value = std::string("disk_fault=") + window;
    EXPECT_EQ(ErrorOf({key_value}),
              key_value + ": expected stall|outage:start_s:end_s, " +
                  "0 <= start_s < end_s");
  }
}

TEST(ConfigFieldsTest, OutOfRangeIntegersAreErrorsNotNarrowed) {
  EXPECT_EQ(ErrorOf({"mpl=4294967301"}), "mpl=4294967301: out of range");
  EXPECT_EQ(ErrorOf({"num_cpus=4294967301"}),
            "num_cpus=4294967301: out of range");
  EXPECT_EQ(ErrorOf({"num_terms=-4294967295"}),
            "num_terms=-4294967295: out of range");
  EXPECT_EQ(ErrorOf({"seed=-1"}), "seed=-1: out of range");
  EXPECT_EQ(ErrorOf({"ext_think_time=1e300"}),
            "ext_think_time=1e300: out of range");
  EXPECT_EQ(ErrorOf({"db_size=99999999999999999999"}),
            "db_size=99999999999999999999: not an integer");
}

TEST(ConfigFieldsTest, BadEnumNamesAreErrors) {
  EXPECT_EQ(ErrorOf({"victim=eldest"}),
            "victim=eldest: expected youngest|oldest|fewest_locks");
  EXPECT_EQ(ErrorOf({"restart_delay=sometimes"}),
            "restart_delay=sometimes: expected none|fixed|adaptive");
  EXPECT_EQ(ErrorOf({"source=half"}), "source=half: expected closed|open");
}

TEST(ConfigFieldsTest, OverridesThatWouldBeIgnoredAreErrors) {
  EXPECT_EQ(ErrorOf({"fixed_delay_s=2"}),
            "fixed_delay_s=2: needs restart_delay=fixed");
  EXPECT_EQ(ErrorOf({"restart_delay=adaptive", "fixed_delay_s=2"}),
            "fixed_delay_s=2: needs restart_delay=fixed");
  EXPECT_EQ(ErrorOf({"arrival_rate=3"}), "arrival_rate=3: needs source=open");
  EXPECT_EQ(ErrorOf({"infinite=true", "num_cpus=3"}),
            "num_cpus=3: needs infinite=false");
  EXPECT_EQ(ErrorOf({"infinite=true", "num_disks=3"}),
            "num_disks=3: needs infinite=false");
  EXPECT_EQ(ErrorOf({"restart_delay=fixed", "fixed_delay_s=2"}), "");
  EXPECT_EQ(ErrorOf({"source=open", "arrival_rate=3"}), "");
  EXPECT_EQ(ErrorOf({"infinite=false", "num_cpus=3"}), "");
}

TEST(ConfigFieldsTest, UnknownKeysAreErrorsUnlessTheCallerReadsThem) {
  EXPECT_EQ(ErrorOf({"mlp=500"}), "mlp=500: unknown key");
  EXPECT_EQ(ErrorOf({"algorithm=optimistic"}),
            "algorithm=optimistic: unknown key");

  EngineConfig config;
  RunLengths lengths;
  int start_mpl = 0;
  const OwnKey own[] = {{"start_mpl", &start_mpl}};
  EXPECT_TRUE(Apply({"start_mpl=9", "mpl=7"}, &config, &lengths, own).ok());
  EXPECT_EQ(config.workload.mpl, 7);
  EXPECT_EQ(start_mpl, 9);
  EXPECT_EQ(Apply({"start_mpl=x"}, &config, &lengths, own).message(),
            "start_mpl=x: not an integer");

  // Without RunLengths to apply them to, the run-length keys are unknown.
  Config overrides;
  overrides.Set("batches", "3");
  EXPECT_EQ(ApplyConfigOverrides(overrides, &config, nullptr).message(),
            "batches=3: unknown key");
}

TEST(ConfigFieldsTest, DefaultsRunConfigHasAlwaysApplied) {
  EngineConfig config;
  RunLengths lengths;
  ASSERT_TRUE(Apply({"restart_delay=fixed"}, &config, &lengths).ok());
  EXPECT_EQ(config.restart_delay_mode, RestartDelayMode::kFixed);
  EXPECT_EQ(config.fixed_restart_delay, kSecond);

  config = EngineConfig();
  ASSERT_TRUE(Apply({"infinite=true", "disk_fault=stall:1:2"}, &config,
                    &lengths)
                  .ok());
  EXPECT_TRUE(config.resources.infinite);
  EXPECT_EQ(config.resources.num_cpus, 0);
  EXPECT_EQ(config.resources.num_disks, 0);
  EXPECT_EQ(config.resources.disk_fault.kind, FaultWindowKind::kStall);

  config = EngineConfig();
  ASSERT_TRUE(Apply({"obj_io_ms=20", "int_think_time=1.5", "batch_seconds=2"},
                    &config, &lengths)
                  .ok());
  EXPECT_EQ(config.workload.obj_io, FromMillis(20));
  EXPECT_EQ(config.workload.int_think_time, FromSeconds(1.5));
  EXPECT_EQ(lengths.batch_length, 2 * kSecond);
}

TEST(ParseKeyValueTest, RangeAndTypeChecks) {
  int narrow = 3;
  EXPECT_FALSE(ParseKeyValue("k", "2147483648", &narrow).ok());
  EXPECT_EQ(narrow, 3) << "a rejected value leaves the target unchanged";
  EXPECT_TRUE(ParseKeyValue("k", "-2147483648", &narrow).ok());
  EXPECT_EQ(narrow, -2147483647 - 1);
  uint64_t wide = 0;
  EXPECT_TRUE(ParseKeyValue("k", "9223372036854775807", &wide).ok());
  EXPECT_EQ(ParseKeyValue("k", "-1", &wide).message(), "k=-1: out of range");
  double real = 0.0;
  EXPECT_EQ(ParseKeyValue("k", "inf", &real).message(),
            "k=inf: not a finite number");
  bool flag = false;
  EXPECT_TRUE(ParseKeyValue("k", "yes", &flag).ok());
  EXPECT_TRUE(flag);
  std::vector<int> list = {7};
  EXPECT_TRUE(ParseKeyValue("k", "5,10", &list).ok());
  EXPECT_EQ(list, (std::vector<int>{5, 10}));
  EXPECT_EQ(ParseKeyValue("k", "5,4294967301", &list).message(),
            "k=4294967301: out of range");
  EXPECT_EQ(ParseKeyValue("k", "", &list).message(), "k=: not an integer");
  EXPECT_EQ(list, (std::vector<int>{5, 10}));
}

}  // namespace
}  // namespace ccsim
