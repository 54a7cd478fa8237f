#include "util/str.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ccsim {

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(s.substr(start));
      return fields;
    }
    fields.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::optional<int64_t> ParseInt(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty() || s.size() > 31) return std::nullopt;
  char buffer[32];
  std::memcpy(buffer, s.data(), s.size());
  buffer[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(buffer, &end, 10);
  if (errno != 0 || end != buffer + s.size()) return std::nullopt;
  return static_cast<int64_t>(value);
}

std::optional<double> ParseDouble(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty() || s.size() > 63) return std::nullopt;
  char buffer[64];
  std::memcpy(buffer, s.data(), s.size());
  buffer[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(buffer, &end);
  // ERANGE also flags subnormals, which strtod reads exactly; only an
  // overflow or an underflow to zero is out of range.
  const bool range = errno == ERANGE && (value == 0.0 || std::isinf(value));
  if (range || end != buffer + s.size()) return std::nullopt;
  return value;
}

std::optional<bool> ParseBool(std::string_view s) {
  s = StripWhitespace(s);
  std::string lower(s);
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lower == "true" || lower == "1" || lower == "yes") return true;
  if (lower == "false" || lower == "0" || lower == "no") return false;
  return std::nullopt;
}

std::string StringPrintf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int size = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string result;
  if (size > 0) {
    result.resize(static_cast<size_t>(size));
    std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return result;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

}  // namespace ccsim
