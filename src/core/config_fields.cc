#include "core/config_fields.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "util/str.h"

namespace ccsim {
namespace {

bool Finite(const EngineConfig& c) { return !c.resources.infinite; }
bool Open(const EngineConfig& c) { return c.source_mode == SourceMode::kOpen; }
bool FixedDelay(const EngineConfig& c) {
  return c.restart_delay_mode == RestartDelayMode::kFixed;
}

/// infinite=true makes the CPU and disk pools pure delays.
void EmptyPools(EngineConfig& c) {
  if (c.resources.infinite) c.resources.num_cpus = c.resources.num_disks = 0;
}

/// restart_delay=fixed has a 1 s mean unless fixed_delay_s says otherwise.
void DefaultFixedDelay(EngineConfig& c) {
  if (FixedDelay(c)) c.fixed_restart_delay = kSecond;
}

// The accessor of an EngineConfig / RunLengths member.
#define E(member) [](EngineConfig& c) -> ConfigRef { return &c.member; }
#define L(member) [](RunLengths& l) -> ConfigRef { return &l.member; }

constexpr ConfigField kConfigFields[] = {
    {.key = "db_size", .group = "workload", .at = E(workload.db_size)},
    {.key = "tran_size", .group = "workload", .at = E(workload.tran_size)},
    {.key = "min_size", .group = "workload", .at = E(workload.min_size)},
    {.key = "max_size", .group = "workload", .at = E(workload.max_size)},
    {.key = "write_prob", .group = "workload", .at = E(workload.write_prob)},
    {.key = "num_terms", .group = "workload", .at = E(workload.num_terms)},
    {.key = "mpl", .group = "workload", .at = E(workload.mpl)},
    {.key = "ext_think_time", .group = "workload", .at = E(workload.ext_think_time),
     .unit = kSecond},
    {.key = "int_think_time", .group = "workload", .at = E(workload.int_think_time),
     .unit = kSecond},
    {.key = "obj_io_ms", .group = "workload", .at = E(workload.obj_io), .unit = kMillisecond},
    {.key = "obj_cpu_ms", .group = "workload", .at = E(workload.obj_cpu), .unit = kMillisecond},
    {.key = "cc_cpu_ms", .group = "workload", .at = E(workload.cc_cpu), .unit = kMillisecond},
    {.key = "buffer_hit_prob", .group = "workload", .at = E(workload.buffer_hit_prob)},
    {.key = "log_io_ms", .group = "workload", .at = E(workload.log_io), .unit = kMillisecond},
    {.key = "hot_fraction_db", .group = "workload", .at = E(workload.hot_fraction_db)},
    {.key = "hot_access_prob", .group = "workload", .at = E(workload.hot_access_prob)},
    {.key = "read_only_fraction", .group = "workload", .at = E(workload.read_only_fraction)},
    {.at = E(workload.classes)},
    {.key = "infinite", .group = "resources", .hint = "true|false", .at = E(resources.infinite),
     .then = EmptyPools},
    {.key = "num_cpus", .group = "resources", .at = E(resources.num_cpus), .needs = Finite,
     .needs_text = "infinite=false"},
    {.key = "num_disks", .group = "resources", .at = E(resources.num_disks), .needs = Finite,
     .needs_text = "infinite=false"},
    {.key = "disk_fault", .group = "faults", .hint = "kind:start_s:end_s",
     .at = E(resources.disk_fault)},
    {.key = "cpu_fault", .group = "faults", .hint = "kind:start_s:end_s",
     .at = E(resources.cpu_fault)},
    {.at = E(algorithm)},
    {.key = "source", .group = "algorithm", .hint = "closed|open", .at = E(source_mode)},
    {.key = "arrival_rate", .group = "algorithm", .at = E(arrival_rate), .needs = Open,
     .needs_text = "source=open"},
    {.key = "x_lock_on_read_intent", .group = "algorithm", .hint = "true|false",
     .at = E(x_lock_on_read_intent)},
    {.at = E(group_commit_window)},
    {.at = E(lock_granule_size)},
    {.key = "restart_delay", .group = "algorithm", .hint = "none|fixed|adaptive",
     .at = E(restart_delay_mode), .then = DefaultFixedDelay},
    {.key = "fixed_delay_s", .group = "algorithm", .at = E(fixed_restart_delay), .unit = kSecond,
     .needs = FixedDelay, .needs_text = "restart_delay=fixed"},
    {.key = "victim", .group = "algorithm", .hint = "youngest|oldest|fewest_locks",
     .at = E(victim_policy)},
    {.at = E(record_history)},
    {.key = "audit", .group = "algorithm", .hint = "true|false", .at = E(audit)},
    // Sweeps derive each point's seed from it, and it keys journal entries
    // on its own.
    {.key = "seed", .group = "run", .at = E(seed), .folds = false},
    {.key = "batches", .group = "run", .run_at = L(batches)},
    {.key = "batch_seconds", .group = "run", .run_at = L(batch_length), .unit = kSecond},
    {.key = "warmup_seconds", .group = "run", .run_at = L(warmup), .unit = kSecond},
};

#undef E
#undef L

/// The value named `value` in `names` ("a|b|c"), by position.
template <typename Enum, typename Out>
Status ParseEnum(std::string_view key, std::string_view value,
                 std::string_view names, Out* out) {
  const std::vector<std::string> options = Split(names, '|');
  auto it = std::find(options.begin(), options.end(), value);
  if (it == options.end()) {
    return BadValue(key, value, "expected " + std::string(names));
  }
  *out = static_cast<Enum>(it - options.begin());
  return Status::Ok();
}

/// stall|outage:start_s:end_s (docs/FAULTS.md, "Fault windows").
Status ParseWindow(std::string_view key, std::string_view value,
                   FaultWindow* out) {
  const std::vector<std::string> parts = Split(value, ':');
  FaultWindow window;
  window.kind = parts[0] == "stall"    ? FaultWindowKind::kStall
                : parts[0] == "outage" ? FaultWindowKind::kOutage
                                       : FaultWindowKind::kNone;
  if (parts.size() != 3 || !window.enabled() ||
      !ParseKeyValue(key, parts[1], &window.start, nullptr, kSecond).ok() ||
      !ParseKeyValue(key, parts[2], &window.end, nullptr, kSecond).ok() ||
      window.start < 0 || window.end <= window.start) {
    return BadValue(key, value,
                    "expected stall|outage:start_s:end_s, "
                    "0 <= start_s < end_s");
  }
  *out = window;
  return Status::Ok();
}

}  // namespace

std::span<const ConfigField> ConfigFields() { return kConfigFields; }

Status BadValue(std::string_view key, std::string_view value,
                std::string_view reason) {
  return Status::InvalidArgument(
      std::string(key).append("=").append(value).append(": ").append(reason));
}

Status ParseKeyValue(std::string_view key, std::string_view value,
                     ConfigRef into, const char* hint, SimTime unit) {
  return std::visit(
      [&](auto* target) -> Status {
        using T = std::remove_pointer_t<decltype(target)>;
        if constexpr (std::is_enum_v<T>) {
          return ParseEnum<T>(key, value, hint, target);
        } else if constexpr (std::is_same_v<T,
                                            std::optional<RestartDelayMode>>) {
          return ParseEnum<RestartDelayMode>(key, value, hint, target);
        } else if constexpr (std::is_same_v<T, FaultWindow>) {
          return ParseWindow(key, value, target);
        } else if constexpr (std::is_same_v<T, std::vector<TxnClass>>) {
          return BadValue(key, value, "no key sets the class mix");
        } else if constexpr (std::is_same_v<T, std::string>) {
          *target = value;
        } else if constexpr (std::is_same_v<T, std::vector<int>>) {
          std::vector<int> items;
          for (const std::string& item : Split(value, ',')) {
            Status status = ParseKeyValue(key, item, &items.emplace_back());
            if (!status.ok()) return status;
          }
          *target = std::move(items);
        } else if constexpr (std::is_same_v<T, bool>) {
          auto parsed = ParseBool(value);
          if (!parsed) return BadValue(key, value, "not true|false");
          *target = *parsed;
        } else if constexpr (std::is_same_v<T, double>) {
          auto parsed = ParseDouble(value);
          if (!parsed || !std::isfinite(*parsed)) {
            return BadValue(key, value, "not a finite number");
          }
          *target = *parsed;
        } else {
          if constexpr (std::is_same_v<T, SimTime>) {
            if (unit != 0) {  // A time, keyed in `unit`s.
              double amount = 0.0;
              Status status = ParseKeyValue(key, value, &amount);
              if (!status.ok()) return status;
              if (std::fabs(amount) * static_cast<double>(unit) > 1e18) {
                return BadValue(key, value, "out of range");  // Past int64.
              }
              *target =
                  unit == kSecond ? FromSeconds(amount) : FromMillis(amount);
              return status;
            }
          }
          auto parsed = ParseInt(value);
          if (!parsed) return BadValue(key, value, "not an integer");
          if (!std::in_range<T>(*parsed)) {
            return BadValue(key, value, "out of range");
          }
          *target = static_cast<T>(*parsed);
        }
        return Status::Ok();
      },
      into);
}

Status ApplyConfigOverrides(const Config& config, EngineConfig* engine,
                            RunLengths* lengths,
                            std::span<const OwnKey> own_keys) {
  for (const auto& [key, value] : config.entries()) {
    auto field = std::find_if(
        std::begin(kConfigFields), std::end(kConfigFields),
        [&key](const ConfigField& f) { return f.key && key == f.key; });
    const bool known = field != std::end(kConfigFields) &&
                       (field->run_at == nullptr || lengths != nullptr);
    const bool own =
        std::any_of(own_keys.begin(), own_keys.end(),
                    [&key](const OwnKey& o) { return key == o.key; });
    if (!known && !own) return BadValue(key, value, "unknown key");
  }
  for (const ConfigField& field : kConfigFields) {
    if (field.key == nullptr || !config.Has(field.key)) continue;
    const std::string value = *config.GetString(field.key);
    Status status = ParseKeyValue(
        field.key, value, field.at ? field.at(*engine) : field.run_at(*lengths),
        field.hint, field.unit);
    if (!status.ok()) return status;
    if (field.then != nullptr) field.then(*engine);
    if (field.needs != nullptr && !field.needs(*engine)) {
      return BadValue(field.key, value,
                      std::string("needs ") + field.needs_text);
    }
  }
  for (const OwnKey& own : own_keys) {
    auto value = config.GetString(own.key);
    Status status =
        value ? ParseKeyValue(own.key, *value, own.into) : Status::Ok();
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status RejectSweptKeys(const Config& config,
                       std::initializer_list<std::string_view> swept,
                       std::string_view reason) {
  for (std::string_view key : swept) {
    std::optional<std::string> value = config.GetString(std::string(key));
    if (value) return BadValue(key, *value, reason);
  }
  return Status::Ok();
}

}  // namespace ccsim
