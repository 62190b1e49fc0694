/// \file bench.h
/// The benchmark's workload interface: each workload sets up, runs a
/// closed loop for the requested time, checks its outputs outside the
/// timed region, and fills an Outcome with end-to-end metrics (untraced
/// run) or per-layer metrics (traced run).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/lookat_matrix.h"
#include "ledger.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Fresh scratch directory for stores and corpora; removed at exit.
  std::string work_dir;
  /// Where the traced run writes its span file.
  std::string trace_path;
  int nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload measured for its end-to-end metrics. The timed clock
/// runs only inside timed operations, so checks between them are not
/// counted.
struct Measured {
  std::vector<double> setup_reps_s;  ///< each set-up repetition
  std::vector<double> done_at_s;     ///< operation completions, timed clock
  double timed_s = 0;                ///< total timed time
  double cpu_s = 0;                  ///< process CPU inside timed time
  std::vector<double> latencies_ms;  ///< what a client waits per operation
  /// Records made durable (or stored) per second, one sample per ingest
  /// or per timing window; the trimmed mean is reported (ingest rates
  /// depend on the event's size, so a median would hinge on whichever
  /// event size sits in the middle).
  std::vector<double> record_rates;

  /// Pre-sizes the sample vectors: untouched capacity is not resident,
  /// so peak_rss_mb does not jump when a longer run regrows them.
  void Reserve(size_t samples) {
    done_at_s.reserve(samples);
    latencies_ms.reserve(samples);
  }
};

/// Operations completed per second in each of `windows` equal slices of
/// the timed clock. A trimmed mean over windows shrugs off a burst of
/// host interference that a whole-run ratio would absorb.
std::vector<double> WindowRates(const std::vector<double>& done_at_s,
                                double timed_s, int windows);

/// Per-layer values a workload computes itself, by metric name.
using LayerCounts = std::map<std::string, double>;

struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;

  /// Counts one operation or output check; logs a failed one.
  void Check(bool ok, const std::string& what);
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Adds the end-to-end metrics every workload reports.
  void AddEndToEnd(Measured m);
  /// Adds every per-layer metric (layers.cc): span-derived ones from
  /// `rec`, the rest from `counts`, 0 for a layer the workload never
  /// called. Writes the spans to `trace_path` when it is set.
  void AddPerLayer(const SpanRecorder& rec, const LayerCounts& counts,
                   const std::string& trace_path);
};

/// Equal look-at counts over the same number of frames.
inline bool SameSummary(const dievent::LookAtSummary& a,
                        const dievent::LookAtSummary& b) {
  if (a.size() != b.size() ||
      a.frames_accumulated() != b.frames_accumulated()) {
    return false;
  }
  for (int x = 0; x < a.size(); ++x) {
    for (int y = 0; y < a.size(); ++y) {
      if (a.At(x, y) != b.At(x, y)) return false;
    }
  }
  return true;
}

/// Process CPU time (all threads), seconds.
double ProcessCpuS();
/// Peak resident set size of the process, MB.
double PeakRssMb();
/// Removes `path` and everything under it; missing is fine.
void RemoveTree(const std::string& path);

void RunMeeting(const Args& args, Outcome* out);
void RunFleet(const Args& args, Outcome* out);
void RunCorpus(const Args& args, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
