#pragma once

// Minimal command-line flag parser used by the example binaries.
//
// Supports "--name=value" and "--name value" forms plus boolean switches.
// Unknown flags are reported; examples use this to stay self-documenting.

#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace usne {

/// Parses the whole of `value`, given for flag --`name`, as a T: a
/// decimal integer, or a number in std::from_chars' general format. A
/// malformed value ("12abc", "") throws std::invalid_argument naming the
/// flag; so does a value outside T's range, naming the flag and, for an
/// integer type, the range (a 32-bit n or kappa must not wrap silently).
/// The one parse behind every numeric flag.
template <typename T>
  requires std::integral<T> || std::floating_point<T>
T parse_flag(const std::string& name, const std::string& value) {
  T out{};
  const char* const last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, out);
  if (ec == std::errc::result_out_of_range) {
    std::string range;
    if constexpr (std::integral<T>) {
      range = " [" + std::to_string(std::numeric_limits<T>::min()) + ", " +
              std::to_string(std::numeric_limits<T>::max()) + "]";
    }
    throw std::invalid_argument("--" + name + " " + value +
                                " is out of range" + range);
  }
  if (ec != std::errc{} || end != last) {
    throw std::invalid_argument(
        "--" + name + " expects " +
        (std::integral<T> ? "an integer" : "a number") + ", got '" + value +
        "'");
  }
  return out;
}

/// Parsed command-line flags with typed, defaulted accessors.
class Cli {
 public:
  /// Parses argv. `spec` maps flag name -> help text; flags not in the spec
  /// are collected into errors(). Non-"--flag" arguments go to positional()
  /// when `allow_positional` is set and to errors() otherwise (the default —
  /// a stray `-n 8` typo must not silently fall back to defaults).
  ///
  /// Flags named in `switches` are boolean: they never consume the next
  /// token as a value ("--audit foo" leaves "foo" positional; use
  /// "--audit=false" for an explicit value). Every other flag requires a
  /// value — a bare "--json" is an error, not a silent "1".
  Cli(int argc, char** argv, std::map<std::string, std::string> spec,
      bool allow_positional = false, std::set<std::string> switches = {});

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Numeric flags: the whole value must parse (decimal integer, or a
  /// number in std::from_chars' general format). A malformed value ("12abc",
  /// "") or one out of range throws std::invalid_argument naming the flag.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const {
    return get_int_as<std::int64_t>(name, fallback);
  }
  double get_double(const std::string& name, double fallback) const {
    return get_as<double>(name, fallback);
  }

  /// get_int for a narrower integer type (a Vertex, an int): a value
  /// outside T's range throws std::invalid_argument naming the flag and
  /// the range (see parse_flag).
  template <std::integral T>
  T get_int_as(const std::string& name, T fallback) const {
    return get_as<T>(name, fallback);
  }

  /// Boolean flags: a bare switch ("--foo") and the values 1/true/yes/on
  /// are true; 0/false/no/off are false; anything else falls back.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Arguments that are not "--flag"s, in order of appearance (only
  /// populated when the constructor allowed them).
  const std::vector<std::string>& positional() const { return positional_; }

  const std::vector<std::string>& errors() const { return errors_; }
  bool help_requested() const { return help_; }

  /// Renders a usage string from the spec.
  std::string usage(const std::string& program) const;

 private:
  std::map<std::string, std::string> spec_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;
  bool help_ = false;

  template <typename T>
  T get_as(const std::string& name, T fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : parse_flag<T>(name, it->second);
  }
};

}  // namespace usne
