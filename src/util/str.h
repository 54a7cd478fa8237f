// Small string helpers shared by config parsing, CSV output, and table
// formatting. Kept dependency-free.
#ifndef CCSIM_UTIL_STR_H_
#define CCSIM_UTIL_STR_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ccsim {

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Parses a signed integer; returns nullopt on any trailing garbage.
std::optional<int64_t> ParseInt(std::string_view s);

/// Parses a double; returns nullopt on any trailing garbage or a value past
/// double range (overflow, underflow to zero). Subnormals parse exactly.
std::optional<double> ParseDouble(std::string_view s);

/// Parses "true"/"false"/"1"/"0" (case-insensitive).
std::optional<bool> ParseBool(std::string_view s);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

}  // namespace ccsim

#endif  // CCSIM_UTIL_STR_H_
