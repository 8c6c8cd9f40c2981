// Tiny command-line flag parser for the example/tool binaries.
//
// Supports --key value and --key=value forms plus boolean switches.
// Unknown flags are collected so tools can reject typos with a usage hint.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rtmac {

/// Parsed command line: flags plus bare positional arguments.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// True iff --name appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed accessors with defaults for absent flags. A numeric flag that is
  /// present must parse completely: an empty value, trailing junk or an
  /// out-of-range number throws std::invalid_argument naming the flag, so a
  /// typo never silently reruns the default configuration.
  [[nodiscard]] std::string get(const std::string& name, const std::string& def) const;
  [[nodiscard]] double get(const std::string& name, double def) const;
  [[nodiscard]] std::int64_t get(const std::string& name, std::int64_t def) const;
  [[nodiscard]] bool get(const std::string& name, bool def) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Flags seen on the command line that `expected` does not contain.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      const std::vector<std::string>& expected) const;

 private:
  std::map<std::string, std::string> flags_;  // name -> value ("" for switches)
  std::vector<std::string> positional_;
};

}  // namespace rtmac
