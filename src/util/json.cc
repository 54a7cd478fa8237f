#include "util/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <climits>
#include <cstring>
#include <optional>

#include "util/str.h"

namespace ccsim::json {

void AppendString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n' || c == '\r' || c == '\t') {
      *out += c == '\n' ? "\\n" : c == '\r' ? "\\r" : "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      *out += StringPrintf("\\u%04x", c);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendDouble(std::string* out, double value) {
  *out += StringPrintf("%.17g", value);
}

void AppendU64(std::string* out, uint64_t value) {
  *out += StringPrintf("\"%llu\"", static_cast<unsigned long long>(value));
}

const Value* Value::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

/// Recursive descent over one JSON text; any deviation fails the parse.
class Parser {
 public:
  explicit Parser(std::string_view input) : in_(input) {}

  bool ParseAll(Value* out) {
    const bool ok = ParseValue(out);
    Peek();
    return ok && pos_ == in_.size();
  }

 private:
  /// The next non-space character, or '\0' at the end.
  char Peek() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
    return pos_ < in_.size() ? in_[pos_] : '\0';
  }

  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }

  bool Literal(std::string_view word, Value::Kind kind, Value* out) {
    out->kind = kind;
    out->boolean = word == "true";
    if (in_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool ParseValue(Value* out) {
    switch (Peek()) {
      case '{': return ParseContainer('}', Value::Kind::kObject, out);
      case '[': return ParseContainer(']', Value::Kind::kArray, out);
      case '"': return ParseString(out);
      case 't': return Literal("true", Value::Kind::kBool, out);
      case 'f': return Literal("false", Value::Kind::kBool, out);
      case 'n': return Literal("null", Value::Kind::kNull, out);
      default: return ParseNumber(out);
    }
  }

  /// An object or array; `close` is its closing bracket.
  bool ParseContainer(char close, Value::Kind kind, Value* out) {
    out->kind = kind;
    ++pos_;  // The opening bracket.
    if (Consume(close)) return true;
    do {
      Value key;
      Value value;
      if (kind == Value::Kind::kObject &&
          (!ParseString(&key) || !Consume(':'))) {
        return false;
      }
      if (!ParseValue(&value)) return false;
      if (kind == Value::Kind::kObject) {
        out->object.emplace(std::move(key.text), std::move(value));
      } else {
        out->array.push_back(std::move(value));
      }
    } while (Consume(','));
    return Consume(close);
  }

  bool ParseString(Value* out) {
    if (!Consume('"')) return false;
    out->kind = Value::Kind::kString;
    // Escape letter, then the byte it stands for.
    static constexpr std::string_view kEscapes = "\"\"\\\\//b\bf\fn\nr\rt\t";
    while (pos_ < in_.size()) {
      const char c = in_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->text.push_back(c);
        continue;
      }
      if (pos_ >= in_.size()) return false;
      const char letter = in_[pos_++];
      if (letter == 'u') {
        // \uXXXX; the writer escapes only ASCII control characters.
        unsigned code = 0;
        const char* hex = in_.data() + pos_;
        const char* end = in_.data() + std::min(pos_ + 4, in_.size());
        auto [stop, error] = std::from_chars(hex, end, code, 16);
        if (error != std::errc() || stop != hex + 4 || code > 0x7f) return false;
        out->text.push_back(static_cast<char>(code));
        pos_ += 4;
        continue;
      }
      const size_t at = kEscapes.find(letter);
      if (at == std::string_view::npos || at % 2 != 0) return false;
      out->text.push_back(kEscapes[at + 1]);
    }
    return false;  // Unterminated.
  }

  bool ParseNumber(Value* out) {
    out->kind = Value::Kind::kNumber;
    const size_t start = pos_;
    while (pos_ < in_.size() && in_[pos_] != '\0' &&
           std::strchr("0123456789+-.eE", in_[pos_]) != nullptr) {
      ++pos_;
    }
    out->text = std::string(in_.substr(start, pos_ - start));
    return pos_ > start;
  }

  std::string_view in_;
  size_t pos_ = 0;
};

/// Stores `parsed` into `out` if it holds a value.
template <typename T>
bool Store(std::optional<T> parsed, T* out) {
  if (parsed.has_value()) *out = *parsed;
  return parsed.has_value();
}

bool Is(const Value* value, Value::Kind kind) {
  return value != nullptr && value->kind == kind;
}

}  // namespace

bool Parse(std::string_view text, Value* out) {
  *out = Value();
  return Parser(text).ParseAll(out);
}

bool Read(const Value* value, double* out) {
  return Is(value, Value::Kind::kNumber) &&
         Store(ParseDouble(value->text), out);
}

bool Read(const Value* value, int64_t* out) {
  return Is(value, Value::Kind::kNumber) && Store(ParseInt(value->text), out);
}

bool Read(const Value* value, int* out) {
  int64_t wide = 0;
  return Read(value, &wide) && wide >= INT_MIN && wide <= INT_MAX &&
         Store(std::optional(static_cast<int>(wide)), out);
}

bool Read(const Value* value, bool* out) {
  return Is(value, Value::Kind::kBool) &&
         Store(std::optional(value->boolean), out);
}

bool Read(const Value* value, std::string* out) {
  return Is(value, Value::Kind::kString) &&
         Store(std::optional(value->text), out);
}

bool Read(const Value* value, uint64_t* out) {
  if (!Is(value, Value::Kind::kString)) return false;
  // from_chars takes no sign or whitespace (strtoull would wrap "-1" to
  // 2^64 - 1) and reports overflow.
  const std::string& text = value->text;
  uint64_t parsed = 0;
  const char* end = text.data() + text.size();
  auto [stop, error] = std::from_chars(text.data(), end, parsed);
  const bool ok = error == std::errc() && stop == end;
  return Store(ok ? std::optional(parsed) : std::nullopt, out);
}

}  // namespace ccsim::json
