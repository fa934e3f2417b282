#include "util/cli.hpp"

#include <sstream>

namespace usne {

Cli::Cli(int argc, char** argv, std::map<std::string, std::string> spec,
         bool allow_positional, std::set<std::string> switches)
    : spec_(std::move(spec)) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      if (allow_positional) {
        positional_.push_back(arg);
      } else {
        errors_.push_back("unexpected positional argument: " + arg);
      }
      continue;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      if (switches.count(name) != 0) {
        // Boolean switch: never consumes the next token. (GCC 12 flags
        // `value = "1"` here with a bogus -Wrestrict.)
        value.assign(1, '1');
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else if (spec_.find(name) != spec_.end()) {
        errors_.push_back("flag --" + name + " requires a value");
        continue;
      }
    }
    if (spec_.find(name) == spec_.end()) {
      errors_.push_back("unknown flag: --" + name);
    } else {
      values_[name] = value;
    }
  }
}

bool Cli::has(const std::string& name) const {
  return values_.find(name) != values_.end();
}

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  return fallback;
}

std::string Cli::usage(const std::string& program) const {
  std::ostringstream out;
  out << "usage: " << program << " [flags]\n";
  for (const auto& [name, help] : spec_) {
    out << "  --" << name << "  " << help << '\n';
  }
  return out.str();
}

}  // namespace usne
