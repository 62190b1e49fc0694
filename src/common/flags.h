/// \file flags.h
/// The command-line parser every DiEvent binary shares: declare typed
/// options, positionals and an optional rest list, then ParseOrExit.
/// `--name value` and `--name=value` are the same; `--help` (or `-h`)
/// prints usage text generated from the declarations and exits 0; every
/// usage error prints `<program>: <message>` and the usage to stderr and
/// exits 2. Once the positionals are filled, the rest list takes every
/// remaining argument verbatim, so its words may start with '-'.

#ifndef DIEVENT_COMMON_FLAGS_H_
#define DIEVENT_COMMON_FLAGS_H_

#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace dievent {

class FlagParser {
 public:
  /// `summary` follows the usage line of the help text.
  FlagParser(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  /// `out` keeps its value (the default) unless the option is given. An
  /// Int is a whole N and a Double a finite X, both in [min, max]; the
  /// help text states the range.
  void Bool(std::string name, bool* out, std::string help) {
    options_.push_back({std::move(name), out, "", std::move(help)});
  }
  void Int(std::string name, int* out, int min, int max, std::string help) {
    options_.push_back({std::move(name), out, "N", std::move(help),
                        static_cast<double>(min), static_cast<double>(max)});
  }
  void Double(std::string name, double* out, double min, double max,
              std::string help) {
    options_.push_back({std::move(name), out, "X", std::move(help), min, max});
  }
  void String(std::string name, std::string* out, std::string metavar,
              std::string help) {
    options_.push_back(
        {std::move(name), out, std::move(metavar), std::move(help)});
  }
  void Positional(std::string name, std::string* out, bool required = true) {
    positionals_.push_back({std::move(name), out, required});
  }
  void Rest(std::string name, std::vector<std::string>* out) {
    rest_name_ = std::move(name);
    rest_ = out;
  }

  /// InvalidArgument carries the first usage error; `--help` stops
  /// parsing with OK.
  Status Parse(int argc, const char* const* argv);

  /// Parse, then print the help and exit 0, or Fail.
  void ParseOrExit(int argc, const char* const* argv);
  /// Reports a usage error in the same form and exits 2.
  [[noreturn]] void Fail(const std::string& message) const;
  /// Reports a failed run as `<program>: <status>` on stderr; returns 2.
  int Error(const Status& status) const;
  std::string Usage() const;

 private:
  struct Option {
    std::string name;
    std::variant<bool*, int*, double*, std::string*> out;
    std::string metavar;
    std::string help;
    double min = 0;  ///< a numeric option's range; 0 for the others
    double max = 0;
  };
  struct Arg {
    std::string name;
    std::string* out;
    bool required;
  };

  Status Set(const Option& option, std::string_view value) const;

  std::string program_;
  std::string summary_;
  std::vector<Option> options_;
  std::vector<Arg> positionals_;
  std::string rest_name_;
  std::vector<std::string>* rest_ = nullptr;
  bool help_ = false;
};

}  // namespace dievent

#endif  // DIEVENT_COMMON_FLAGS_H_
