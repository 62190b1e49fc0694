/// \file perf_smoke.h
/// The main() every google-benchmark bench shares, with the gated
/// benches' `--perf_smoke=PATH` mode, and the JSON writer behind every
/// BENCH_*.json snapshot.

#ifndef DIEVENT_BENCH_PERF_SMOKE_H_
#define DIEVENT_BENCH_PERF_SMOKE_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/flags.h"

namespace dievent {
namespace bench {

/// main() of every google-benchmark bench. Once an argument starts with
/// `--perf_smoke`, a gated bench parses argv as the perf-smoke command
/// line and runs `perf_smoke(PATH)`. Otherwise argv goes to
/// google-benchmark, then `after` runs. Usage errors exit 2.
inline int BenchMain(int argc, char** argv,
                     int (*perf_smoke)(const std::string& path),
                     void (*after)() = nullptr) {
  if (perf_smoke != nullptr &&
      std::any_of(argv + 1, argv + argc, [](std::string_view arg) {
        return arg.starts_with("--perf_smoke");
      })) {
    std::string path;
    FlagParser flags(argv[0], "");
    flags.String("perf_smoke", &path, "PATH",
                 "run the perf-smoke gate, write its JSON snapshot to PATH");
    flags.ParseOrExit(argc, argv);
    return perf_smoke(path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (after != nullptr) after();
  return 0;
}

/// Builds one JSON object with keys in insertion order. Begin(key) opens a
/// nested object and End() closes it; commas, indentation and string
/// escaping are handled here. Numbers print in the stream's default
/// format (6 significant digits).
class JsonWriter {
 public:
  JsonWriter() { out_ << "{"; }

  JsonWriter& Add(std::string_view key, std::string_view value) {
    Key(key);
    String(value);
    return *this;
  }
  JsonWriter& Add(std::string_view key, const char* value) {
    return Add(key, std::string_view(value));
  }
  JsonWriter& Add(std::string_view key, bool value) {
    Key(key);
    out_ << (value ? "true" : "false");
    return *this;
  }
  template <typename Number>
    requires(std::is_arithmetic_v<Number> && !std::is_same_v<Number, bool>)
  JsonWriter& Add(std::string_view key, Number value) {
    Key(key);
    out_ << value;
    return *this;
  }

  JsonWriter& Begin(std::string_view key) {
    Key(key);
    out_ << "{";
    ++depth_;
    first_ = true;
    return *this;
  }
  JsonWriter& End() {
    --depth_;
    out_ << "\n" << std::string(2 * depth_, ' ') << "}";
    first_ = false;
    return *this;
  }

  /// Closes the top-level object and writes it to `path`. Reports a
  /// failed write on stderr and returns false.
  bool WriteFile(const std::string& path) {
    out_ << "\n}\n";
    std::ofstream file(path);
    file << out_.str();
    file.close();
    if (!file) {
      std::fprintf(stderr, "perf_smoke: cannot write %s\n", path.c_str());
      return false;
    }
    return true;
  }

 private:
  void Key(std::string_view key) {
    out_ << (first_ ? "\n" : ",\n") << std::string(2 * depth_, ' ');
    String(key);
    out_ << ": ";
    first_ = false;
  }

  void String(std::string_view s) {
    out_ << '"';
    for (char c : s) {
      switch (c) {
        case '"':
          out_ << "\\\"";
          break;
        case '\\':
          out_ << "\\\\";
          break;
        case '\n':
          out_ << "\\n";
          break;
        case '\t':
          out_ << "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ << buf;
          } else {
            out_ << c;
          }
      }
    }
    out_ << '"';
  }

  std::ostringstream out_;
  int depth_ = 1;
  bool first_ = true;
};

}  // namespace bench
}  // namespace dievent

#endif  // DIEVENT_BENCH_PERF_SMOKE_H_
