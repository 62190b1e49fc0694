#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace dievent {

namespace {

/// "N in [1, 256]": what a numeric option accepts.
std::string RangeText(const std::string& var, double min, double max) {
  return StrFormat("%s in [%.15g, %.15g]", var.c_str(), min, max);
}

/// Appends `text`, indenting every line after the first by `indent`.
void AppendIndented(std::string* out, std::string_view text, size_t indent) {
  for (char c : text) {
    out->push_back(c);
    if (c == '\n') out->append(indent, ' ');
  }
}

}  // namespace

Status FlagParser::Set(const Option& option, std::string_view value) const {
  if (std::string* const* text = std::get_if<std::string*>(&option.out)) {
    **text = value;
    return Status::OK();
  }
  const char* end = value.data() + value.size();
  int* const* whole = std::get_if<int*>(&option.out);
  long long n = 0;
  double x = 0;
  const auto [ptr, ec] = whole ? std::from_chars(value.data(), end, n)
                               : std::from_chars(value.data(), end, x);
  if (whole) x = static_cast<double>(n);
  if (ec != std::errc() || ptr != end || !std::isfinite(x) ||
      x < option.min || x > option.max) {
    return Status::InvalidArgument(
        "bad value for --" + option.name + ": '" + std::string(value) +
        "', want " + RangeText(option.metavar, option.min, option.max));
  }
  if (whole) {
    **whole = static_cast<int>(n);
  } else {
    *std::get<double*>(option.out) = x;
  }
  return Status::OK();
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  size_t filled = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (rest_ != nullptr && filled == positionals_.size()) {
      rest_->emplace_back(arg);
    } else if (arg == "--help" || arg == "-h") {
      help_ = true;
      return Status::OK();
    } else if (arg.size() > 1 && arg[0] == '-') {
      const size_t eq = arg.find('=');
      const std::string_view name = arg.substr(0, eq);
      auto option = std::find_if(
          options_.begin(), options_.end(),
          [&](const Option& o) { return name == "--" + o.name; });
      if (option == options_.end()) {
        return Status::InvalidArgument("unknown option '" +
                                       std::string(name) + "'");
      }
      const std::string bad = "bad value for " + std::string(name) + ": ";
      if (bool* const* flag = std::get_if<bool*>(&option->out)) {
        if (eq != std::string_view::npos) {
          return Status::InvalidArgument(bad + "'" +
                                         std::string(arg.substr(eq + 1)) +
                                         "', want no value");
        }
        **flag = true;
      } else if (eq != std::string_view::npos) {
        DIEVENT_RETURN_NOT_OK(Set(*option, arg.substr(eq + 1)));
      } else if (i + 1 < argc) {
        DIEVENT_RETURN_NOT_OK(Set(*option, argv[++i]));
      } else {
        return Status::InvalidArgument(bad + "missing");
      }
    } else if (filled < positionals_.size()) {
      *positionals_[filled++].out = arg;
    } else {
      return Status::InvalidArgument("unexpected argument '" +
                                     std::string(arg) + "'");
    }
  }
  for (; filled < positionals_.size(); ++filled) {
    if (positionals_[filled].required) {
      return Status::InvalidArgument("missing <" +
                                     positionals_[filled].name + ">");
    }
  }
  return Status::OK();
}

void FlagParser::ParseOrExit(int argc, const char* const* argv) {
  const Status parsed = Parse(argc, argv);
  if (!parsed.ok()) Fail(parsed.message());
  if (help_) {
    std::fputs(Usage().c_str(), stdout);
    std::exit(0);
  }
}

void FlagParser::Fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), message.c_str(),
               Usage().c_str());
  std::exit(2);
}

int FlagParser::Error(const Status& status) const {
  std::fprintf(stderr, "%s: %s\n", program_.c_str(),
               status.ToString().c_str());
  return 2;
}

std::string FlagParser::Usage() const {
  std::string out = "usage: " + program_ + " [options]";
  for (const Arg& arg : positionals_) {
    out += arg.required ? " <" + arg.name + ">" : " [<" + arg.name + ">]";
  }
  if (rest_ != nullptr) out += " [" + rest_name_ + "...]";
  if (!summary_.empty()) {
    out += "\n  ";
    AppendIndented(&out, summary_, 2);
  }
  out += "\noptions:\n";
  std::vector<std::pair<std::string, std::string>> rows;
  for (const Option& option : options_) {
    rows.emplace_back("--" + option.name, option.help);
    if (!option.metavar.empty()) rows.back().first += " " + option.metavar;
    if (option.min < option.max) {
      rows.back().second += "; " + RangeText(option.metavar, option.min,
                                             option.max);
    }
  }
  rows.emplace_back("--help", "print this help and exit");
  size_t width = 0;
  for (const auto& row : rows) width = std::max(width, row.first.size());
  for (const auto& [left, help] : rows) {
    out += "  " + left + std::string(width + 2 - left.size(), ' ');
    AppendIndented(&out, help, width + 4);
    out += "\n";
  }
  return out;
}

}  // namespace dievent
