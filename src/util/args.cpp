#include "util/args.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace rtmac {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // --key value form: consume the next token iff it is not itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";  // boolean switch
    }
  }
}

bool ArgParser::has(const std::string& name) const { return flags_.contains(name); }

std::string ArgParser::get(const std::string& name, const std::string& def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

namespace {

/// Parses all of `raw` with `parse` (strtod/strtoll shape) or throws.
template <typename T, typename Parse>
T parse_number(const std::string& name, const std::string& raw, const char* what, Parse parse) {
  char* end = nullptr;
  errno = 0;
  const T v = raw.empty() ? T{} : parse(raw.c_str(), &end);
  if (raw.empty() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + name + " expects " + what + ", got \"" + raw + "\"");
  }
  return v;
}

}  // namespace

double ArgParser::get(const std::string& name, double def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return parse_number<double>(name, it->second, "a number",
                              [](const char* s, char** end) { return std::strtod(s, end); });
}

std::int64_t ArgParser::get(const std::string& name, std::int64_t def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return parse_number<std::int64_t>(
      name, it->second, "an integer",
      [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

bool ArgParser::get(const std::string& name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  if (it->second.empty() || it->second == "true" || it->second == "1" ||
      it->second == "yes" || it->second == "on") {
    return true;
  }
  return false;
}

std::vector<std::string> ArgParser::unknown_flags(
    const std::vector<std::string>& expected) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : flags_) {
    bool found = false;
    for (const auto& e : expected) {
      if (e == name) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(name);
  }
  return unknown;
}

}  // namespace rtmac
