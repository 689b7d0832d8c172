#pragma once
/// \file argparse.hpp
/// \brief Tiny declarative argument parser for the `adept` CLI and benches.
///
/// Supports `--flag`, `--key value`, `--key=value` and positional
/// arguments; generates usage text, which `--help` / `-h` prints.
/// Deliberately minimal — no subcommand dispatch (the CLI handles that
/// itself) and no type registry beyond string/double/int/bool.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace adept {

/// Declarative option set plus parsed results.
class ArgParser {
 public:
  explicit ArgParser(std::string program, std::string description = {});

  /// Declares a string option with an optional default.
  void add_option(const std::string& name, const std::string& help,
                  std::optional<std::string> default_value = std::nullopt);
  /// Declares a boolean flag (present => true).
  void add_flag(const std::string& name, const std::string& help);
  /// Declares a positional argument (required unless a default is given).
  void add_positional(const std::string& name, const std::string& help,
                      std::optional<std::string> default_value = std::nullopt);

  /// Parses argv (excluding argv[0]); throws adept::Error on unknown or
  /// malformed options. `--help` or `-h` anywhere before a parse error
  /// prints usage() to stdout and exits the process with status 0.
  void parse(const std::vector<std::string>& args);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  double get_double(const std::string& name) const;
  long long get_int(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// Generated usage/help text.
  std::string usage() const;

 private:
  struct Spec {
    std::string help;
    std::optional<std::string> default_value;
    bool is_flag = false;
  };
  std::string program_;
  std::string description_;
  std::map<std::string, Spec> options_;
  std::vector<std::pair<std::string, Spec>> positionals_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> flags_;
};

}  // namespace adept
