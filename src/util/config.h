// key=value configuration parsing for experiment harnesses and examples.
//
// Accepts lines of the form `key = value`; `#` starts a comment; blank lines
// are ignored. Also parses command-line style `key=value` token lists so that
// every bench binary can be overridden from the shell without recompiling.
#ifndef CCSIM_UTIL_CONFIG_H_
#define CCSIM_UTIL_CONFIG_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ccsim {

/// A flat string-to-string configuration.
class Config {
 public:
  Config() = default;

  /// Parses `key = value` lines; returns false and sets `error` on a
  /// malformed line (missing '=' on a non-empty, non-comment line).
  bool ParseText(std::string_view text, std::string* error);

  /// Parses argv-style tokens, each `key=value`. Unknown keys are kept; the
  /// caller validates. Returns false and sets `error` on a token with no '='.
  bool ParseArgs(const std::vector<std::string>& args, std::string* error);

  /// Sets a key, overwriting any previous value.
  void Set(const std::string& key, const std::string& value);

  bool Has(const std::string& key) const;

  /// The raw value of `key`, or nullopt when absent. Typed parsing of
  /// values is core/config_fields.h's job.
  std::optional<std::string> GetString(const std::string& key) const;

  const std::map<std::string, std::string>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace ccsim

#endif  // CCSIM_UTIL_CONFIG_H_
