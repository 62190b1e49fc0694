/// \file main.cc
/// Benchmark driver entry point.
///
///   dievent_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                     --work-dir DIR [--trace-out PATH]
///
/// Prints the run's environment, one line per metric, and as its last
/// line a JSON object {correct, attempted, failed, metrics}. Exits 1
/// when an output check failed and 2 on bad arguments or set-up errors.

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/simd.h"

namespace perfbench {

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 20) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

std::vector<double> WindowRates(const std::vector<double>& done_at_s,
                                double timed_s, int windows) {
  std::vector<double> rates;
  if (timed_s <= 0 || windows < 1) return rates;
  const double width = timed_s / windows;
  std::vector<long long> counts(windows, 0);
  for (double t : done_at_s) {
    const int w = std::clamp(static_cast<int>(t / width), 0, windows - 1);
    ++counts[w];
  }
  for (long long c : counts) rates.push_back(c / width);
  return rates;
}

void Outcome::AddEndToEnd(Measured m) {
  const long long ops = static_cast<long long>(m.done_at_s.size());
  const std::vector<double> rates = WindowRates(m.done_at_s, m.timed_s, 10);
  const LatencySummary lat = Summarize(std::move(m.latencies_ms));
  Add("setup_s", Median(m.setup_reps_s), "s");
  Add("ops_per_s", TrimmedMean(rates), "1/s");
  Add("op_ms.p50", lat.p50, "ms");
  Add("op_ms.tail", lat.tail, "ms");
  Add("cpu_ms_per_op", ops > 0 ? 1e3 * m.cpu_s / ops : 0, "ms");
  Add("records_per_s", TrimmedMean(m.record_rates), "1/s");
  Add("peak_rss_mb", PeakRssMb(), "MB");
  std::printf("perfbench: %lld ops in %.3f s timed; latency n=%zu, tail = "
              "p%g\nperfbench: set-up reps (s):",
              ops, m.timed_s, lat.n, lat.tail_p / 100.0);
  for (double s : m.setup_reps_s) std::printf(" %.3f", s);
  std::printf("\nperfbench: ops/s per window:");
  for (double r : rates) std::printf(" %.0f", r);
  std::printf("\n");
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + 1e-9 * ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

namespace {

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

const char* FsTypeName(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: return "other";
  }
}

void Usage() {
  std::fputs(
      "usage: dievent_perfbench --workload meeting_fullvision|"
      "fleet_groundtruth|corpus_mixed\n"
      "         --seed N --seconds S --trace 0|1 --work-dir DIR "
      "[--trace-out PATH]\n",
      stderr);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      Usage();
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: bad value for %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.work_dir.empty() ||
      (trace != 0 && trace != 1) || !(args.seconds > 0)) {
    Usage();
    return 2;
  }
  args.trace = trace == 1;
  args.nproc = Nproc();

  // Absolute, so store paths handed to the corpus resolve the same way
  // from every component.
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (!ec) args.work_dir = std::filesystem::absolute(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.work_dir.c_str());
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%d simd=%s build=%s store_fs=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              trace, args.nproc, dievent::simd::ActiveBackend(),
              PERFBENCH_BUILD_TYPE, FsTypeName(args.work_dir));
  std::fflush(stdout);

  Outcome out;
  if (args.workload == "meeting_fullvision") {
    RunMeeting(args, &out);
  } else if (args.workload == "fleet_groundtruth") {
    RunFleet(args, &out);
  } else if (args.workload == "corpus_mixed") {
    RunCorpus(args, &out);
  } else {
    Usage();
    RemoveTree(args.work_dir);
    return 2;
  }
  RemoveTree(args.work_dir);
  if (out.attempted == 0) {
    std::fprintf(stderr, "perfbench: the workload did not run\n");
    return 2;
  }

  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("perfbench: %-34s %.6g %s\n", m.name.c_str(), v,
                m.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.failed == 0 ? 0 : 1;
}
