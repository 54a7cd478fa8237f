// Minimal JSON shared by the sweep journal (core/journal.cc) and the trace
// writer (obs/trace_json.cc); no other file hand-escapes JSON (ccsim-lint
// R9). Doubles print with %.17g, which strtod reads back bit-exactly.
// Unsigned 64-bit integers print as decimal *strings*: JSON numbers are
// doubles and lose precision past 2^53, and seeds and digests use the full
// range.
#ifndef CCSIM_UTIL_JSON_H_
#define CCSIM_UTIL_JSON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ccsim::json {

/// Appends `s` as a quoted JSON string: quote, backslash and every control
/// character escaped, all other bytes unchanged.
void AppendString(std::string* out, std::string_view s);
inline std::string Quote(std::string_view s) {
  std::string out;
  AppendString(&out, s);
  return out;
}

/// Appends `value` with %.17g.
void AppendDouble(std::string* out, double value);

/// Appends `value` as a quoted decimal string.
void AppendU64(std::string* out, uint64_t value);

/// A parsed JSON value.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< Raw number text, or string contents.
  std::map<std::string, Value, std::less<>> object;
  std::vector<Value> array;

  /// The member `key` of an object, or nullptr (also for non-objects).
  const Value* Find(std::string_view key) const;
};

/// Parses one complete JSON text (surrounding whitespace allowed). False on
/// any syntax error, truncation, or trailing garbage.
bool Parse(std::string_view text, Value* out);

/// Typed reads. Each returns false, leaving `out` untouched, when `value`
/// is null (a missing member), of the wrong kind, or out of the target's
/// range (an int past int range, a non-integral integer, a double overflow).
bool Read(const Value* value, double* out);
bool Read(const Value* value, int64_t* out);
bool Read(const Value* value, int* out);
bool Read(const Value* value, bool* out);
bool Read(const Value* value, std::string* out);
/// AppendU64's quoted form: digits only (no sign or whitespace), at most
/// 2^64 - 1.
bool Read(const Value* value, uint64_t* out);

}  // namespace ccsim::json

#endif  // CCSIM_UTIL_JSON_H_
