// EngineConfig's and RunLengths' fields, each written down once
// (docs/EXECUTION.md, "Adding a config knob"). A row holds the field's
// override key, its usage group and value hint, its time unit or enum
// names, and whether it folds into the sweep journal's point key.
// ApplyConfigOverrides, HashPointKey (core/journal.h) and run_config's key
// check and --help iterate the table and name no field themselves, so a
// field that is parsed but not hashed cannot exist.
#ifndef CCSIM_CORE_CONFIG_FIELDS_H_
#define CCSIM_CORE_CONFIG_FIELDS_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/closed_system.h"
#include "core/experiment.h"
#include "util/config.h"

namespace ccsim {

/// A typed pointer to one config field.
using ConfigRef =
    std::variant<int*, int64_t*, uint64_t*, double*, bool*, std::string*,
                 std::vector<int>*, SourceMode*, VictimPolicy*,
                 std::optional<RestartDelayMode>*, FaultWindow*,
                 std::vector<TxnClass>*>;

/// One field of EngineConfig or RunLengths. The table's order is the point
/// key's fold order: append rows, never reorder them.
struct ConfigField {
  const char* key = nullptr;    ///< Override key; nullptr = set in code only.
  const char* group = nullptr;  ///< run_config --help group.
  /// --help value hint; for an enum, the value names in enum order.
  const char* hint = nullptr;
  ConfigRef (*at)(EngineConfig&) = nullptr;   ///< An EngineConfig field,
  ConfigRef (*run_at)(RunLengths&) = nullptr;  ///< or a RunLengths field.
  SimTime unit = 0;   ///< A SimTime's key unit (kSecond, kMillisecond).
  bool folds = true;  ///< Folds into HashPointKey; false only for the seed.
  void (*then)(EngineConfig&) = nullptr;  ///< Runs after the key applies.
  /// The key is an error unless this holds once it applied (so it may
  /// only look at earlier rows); `needs_text` spells it ("source=open").
  bool (*needs)(const EngineConfig&) = nullptr;
  const char* needs_text = nullptr;

  /// The field of a const config, for reading (nothing writes through it).
  ConfigRef Get(const EngineConfig& config, const RunLengths& lengths) const {
    return at ? at(const_cast<EngineConfig&>(config))
              : run_at(const_cast<RunLengths&>(lengths));
  }
};

/// Every field, in fold order.
std::span<const ConfigField> ConfigFields();

/// The one form of every override error: kInvalidArgument
/// "<key>=<value>: <reason>".
Status BadValue(std::string_view key, std::string_view value,
                std::string_view reason);

/// Parses `value`, given for `key`, into `into`: an integer in the target's
/// range, a finite number, true|false (or 1|0, yes|no), any string, a
/// comma-separated list of ints, a name from `hint` for an enum, an amount
/// of `unit` for a SimTime. Anything else is a BadValue and leaves `into`
/// unchanged.
Status ParseKeyValue(std::string_view key, std::string_view value,
                     ConfigRef into, const char* hint = nullptr,
                     SimTime unit = 0);

/// A key a program reads itself, outside the table: where its value is
/// parsed to (ParseKeyValue), and its --help group and hint.
struct OwnKey {
  const char* key;
  ConfigRef into;
  const char* group = nullptr;
  const char* hint = nullptr;
};

/// Applies each table key of `config` to *engine or *lengths, in table
/// order, then parses each present `own_keys` key into its target. Any
/// other key, a value that does not parse, and a key whose `needs` fails is
/// a BadValue. With `lengths` null, the RunLengths keys are unknown.
Status ApplyConfigOverrides(const Config& config, EngineConfig* engine,
                            RunLengths* lengths,
                            std::span<const OwnKey> own_keys = {});

/// A BadValue "<key>=<value>: <reason>" for the first of `swept` present in
/// `config`: keys a program sets itself while sweeping, which would
/// otherwise be accepted and then overwritten.
Status RejectSweptKeys(const Config& config,
                       std::initializer_list<std::string_view> swept,
                       std::string_view reason);

}  // namespace ccsim

#endif  // CCSIM_CORE_CONFIG_FIELDS_H_
