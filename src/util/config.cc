#include "util/config.h"

#include "util/str.h"

namespace ccsim {

bool Config::ParseText(std::string_view text, std::string* error) {
  int line_number = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    std::string_view line = raw_line;
    size_t comment = line.find('#');
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    line = StripWhitespace(line);
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr) {
        *error = StringPrintf("line %d: expected key=value, got \"%.*s\"",
                              line_number, static_cast<int>(line.size()),
                              line.data());
      }
      return false;
    }
    Set(std::string(StripWhitespace(line.substr(0, eq))),
        std::string(StripWhitespace(line.substr(eq + 1))));
  }
  return true;
}

bool Config::ParseArgs(const std::vector<std::string>& args, std::string* error) {
  for (const std::string& arg : args) {
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) {
        *error = StringPrintf("argument \"%s\" is not of the form key=value",
                              arg.c_str());
      }
      return false;
    }
    Set(std::string(StripWhitespace(std::string_view(arg).substr(0, eq))),
        std::string(StripWhitespace(std::string_view(arg).substr(eq + 1))));
  }
  return true;
}

void Config::Set(const std::string& key, const std::string& value) {
  entries_[key] = value;
}

bool Config::Has(const std::string& key) const { return entries_.count(key) > 0; }

std::optional<std::string> Config::GetString(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

}  // namespace ccsim
