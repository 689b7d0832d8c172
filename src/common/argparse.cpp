#include "common/argparse.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace adept {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           std::optional<std::string> default_value) {
  options_[name] = Spec{help, std::move(default_value), false};
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Spec{help, std::nullopt, true};
  flags_[name] = false;
}

void ArgParser::add_positional(const std::string& name, const std::string& help,
                               std::optional<std::string> default_value) {
  positionals_.emplace_back(name, Spec{help, std::move(default_value), false});
}

void ArgParser::parse(const std::vector<std::string>& args) {
  std::size_t positional_index = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      std::exit(0);
    }
    if (strings::starts_with(arg, "--")) {
      std::string name = arg.substr(2);
      std::string value;
      bool has_value = false;
      if (const auto eq = name.find('='); eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
        has_value = true;
      }
      const auto it = options_.find(name);
      ADEPT_CHECK(it != options_.end(), "unknown option --" + name + "\n" + usage());
      if (it->second.is_flag) {
        ADEPT_CHECK(!has_value, "flag --" + name + " does not take a value");
        flags_[name] = true;
      } else {
        if (!has_value) {
          ADEPT_CHECK(i + 1 < args.size(), "option --" + name + " needs a value");
          value = args[++i];
        }
        values_[name] = value;
      }
    } else {
      ADEPT_CHECK(positional_index < positionals_.size(),
                  "unexpected positional argument '" + arg + "'\n" + usage());
      values_[positionals_[positional_index++].first] = arg;
    }
  }
  for (const auto& [name, spec] : options_) {
    if (!spec.is_flag && !values_.count(name) && spec.default_value)
      values_[name] = *spec.default_value;
  }
  for (; positional_index < positionals_.size(); ++positional_index) {
    const auto& [name, spec] = positionals_[positional_index];
    ADEPT_CHECK(spec.default_value.has_value(),
                "missing required argument <" + name + ">\n" + usage());
    values_[name] = *spec.default_value;
  }
}

bool ArgParser::has(const std::string& name) const { return values_.count(name) > 0; }

std::string ArgParser::get(const std::string& name) const {
  const auto it = values_.find(name);
  ADEPT_CHECK(it != values_.end(), "option --" + name + " was not provided");
  return it->second;
}

double ArgParser::get_double(const std::string& name) const {
  const auto parsed = strings::parse_double(get(name));
  ADEPT_CHECK(parsed.has_value(), "option --" + name + " is not a number");
  return *parsed;
}

long long ArgParser::get_int(const std::string& name) const {
  const auto parsed = strings::parse_int(get(name));
  ADEPT_CHECK(parsed.has_value(), "option --" + name + " is not an integer");
  return *parsed;
}

bool ArgParser::get_flag(const std::string& name) const {
  const auto it = flags_.find(name);
  ADEPT_CHECK(it != flags_.end(), "unknown flag --" + name);
  return it->second;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "usage: " << program_;
  for (const auto& [name, spec] : positionals_)
    os << (spec.default_value ? " [" + name + "]" : " <" + name + ">");
  if (!options_.empty()) os << " [options]";
  os << '\n';
  if (!description_.empty()) os << description_ << '\n';
  for (const auto& [name, spec] : positionals_)
    os << "  " << name << ": " << spec.help << '\n';
  for (const auto& [name, spec] : options_) {
    os << "  --" << name;
    if (!spec.is_flag) os << " <value>";
    os << ": " << spec.help;
    if (spec.default_value) os << " (default: " << *spec.default_value << ")";
    os << '\n';
  }
  os << "  -h, --help: print this usage and exit\n";
  return os.str();
}

}  // namespace adept
