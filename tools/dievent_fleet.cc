/// \file dievent_fleet.cc
/// Run a directory of scenario configs as a multi-tenant fleet.
///
/// Usage:
///   dievent_fleet [options] <scenario-dir>
///
/// Every `*.scene` file under <scenario-dir> (see sim/scene_config.h for
/// the format) becomes one tenant of the event scheduler: its own
/// ground-truth pipeline, its own durable store directory under --out,
/// its own error budget. Tenants run up to --max-concurrent at a time;
/// failures are retried with capped exponential backoff and parked when
/// the budget is spent, while healthy tenants keep draining. A tenant's
/// priority comes from its file name: `name.low.scene` and
/// `name.high.scene` mark low/high; everything else is normal.
///
/// Exit codes:
///   0  every admitted tenant completed
///   1  at least one tenant was parked (its error budget ran out)
///   2  usage or environmental error (bad flag or flag value, unreadable
///      directory, unparsable scene)
///
/// Inspect the stores afterwards with `dievent_fsck --fleet <out>`.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fleet/scheduler.h"
#include "io/file.h"
#include "metadata/corpus.h"
#include "sim/scene_config.h"

namespace {

void PrintUsage(std::FILE* out) {
  std::fputs(
      "usage: dievent_fleet [options] <scenario-dir>\n"
      "  Runs every *.scene config in <scenario-dir> as one tenant of\n"
      "  the multi-tenant event scheduler (ground-truth mode); a free\n"
      "  runner starts the highest-priority waiting tenant.\n"
      "  Numeric values must be non-negative and fit an int.\n"
      "options:\n"
      "  --out DIR             fleet root for per-tenant durable stores\n"
      "                        (default: in-memory only)\n"
      "  --max-concurrent N    runner parallelism, >= 1 (default 2)\n"
      "  --max-attempts N      error budget per tenant, >= 1 (default 3)\n"
      "  --watchdog S          interrupt a tenant committing no frame\n"
      "                        for S seconds (default: off)\n"
      "  --checkpoint-every N  checkpoint stores every N frames\n"
      "                        (default 8)\n"
      "  --shed-above N        shed low-priority admissions while N or\n"
      "                        more tenants wait (default: off)\n"
      "  --defer-latency S     defer low-priority dispatch while the\n"
      "                        fleet P95 frame latency exceeds S seconds\n"
      "                        (default: off)\n"
      "  --corpus DIR          register each completed tenant's store\n"
      "                        into the event corpus at DIR (needs --out;\n"
      "                        query it with dievent_query)\n"
      "  --parse-video         enable video composition analysis\n",
      out);
}

/// Accepts a whole decimal integer in [min, INT_MAX].
bool ParseIntFlag(const char* value, int min, int* out) {
  char* end = nullptr;
  errno = 0;
  long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE) return false;
  if (parsed < min || parsed > INT_MAX) return false;
  *out = static_cast<int>(parsed);
  return true;
}

/// Accepts a finite number of seconds in [0, INT_MAX]; the bound keeps
/// the value convertible to a clock duration.
bool ParseSecondsFlag(const char* value, double* out) {
  char* end = nullptr;
  double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0') return false;
  if (!std::isfinite(parsed) || parsed < 0 || parsed > INT_MAX) return false;
  *out = parsed;
  return true;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  dievent::SchedulerOptions sched;
  sched.checkpoint_every_frames = 8;
  std::string scenario_dir;
  std::string out_dir;
  std::string corpus_dir;
  bool parse_video = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    } else if (std::strcmp(arg, "--out") == 0) {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "dievent_fleet: --out needs a value\n");
        return 2;
      }
      out_dir = v;
    } else if (std::strcmp(arg, "--corpus") == 0) {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "dievent_fleet: --corpus needs a value\n");
        return 2;
      }
      corpus_dir = v;
    } else if (std::strcmp(arg, "--parse-video") == 0) {
      parse_video = true;
    } else {
      int* int_target = nullptr;
      int int_min = 0;
      double* double_target = nullptr;
      int shed_above = 0;
      if (std::strcmp(arg, "--max-concurrent") == 0) {
        int_target = &sched.max_concurrent;
        int_min = 1;
      } else if (std::strcmp(arg, "--max-attempts") == 0) {
        int_target = &sched.max_attempts;
        int_min = 1;
      } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
        int_target = &sched.checkpoint_every_frames;
      } else if (std::strcmp(arg, "--shed-above") == 0) {
        int_target = &shed_above;
      } else if (std::strcmp(arg, "--watchdog") == 0) {
        double_target = &sched.watchdog_deadline_s;
      } else if (std::strcmp(arg, "--defer-latency") == 0) {
        double_target = &sched.defer_latency_above_s;
      } else if (arg[0] == '-') {
        std::fprintf(stderr, "dievent_fleet: unknown option '%s'\n", arg);
        PrintUsage(stderr);
        return 2;
      } else if (!scenario_dir.empty()) {
        std::fprintf(stderr,
                     "dievent_fleet: more than one directory given\n");
        return 2;
      } else {
        scenario_dir = arg;
        continue;
      }
      const char* v = next();
      if (v == nullptr ||
          (int_target != nullptr && !ParseIntFlag(v, int_min, int_target)) ||
          (double_target != nullptr &&
           !ParseSecondsFlag(v, double_target))) {
        std::fprintf(stderr, "dievent_fleet: bad value for %s\n", arg);
        return 2;
      }
      if (int_target == &shed_above) {
        sched.shed_waiting_above = static_cast<size_t>(shed_above);
      }
    }
  }
  if (scenario_dir.empty()) {
    PrintUsage(stderr);
    return 2;
  }
  if (!corpus_dir.empty() && out_dir.empty()) {
    std::fprintf(stderr,
                 "dievent_fleet: --corpus needs --out (only tenants with "
                 "a durable store can be registered)\n");
    return 2;
  }

  // The corpus must outlive the scheduler that registers into it.
  std::unique_ptr<dievent::EventCorpus> corpus;
  if (!corpus_dir.empty()) {
    auto opened = dievent::EventCorpus::Open(corpus_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "dievent_fleet: --corpus %s: %s\n",
                   corpus_dir.c_str(),
                   opened.status().ToString().c_str());
      return 2;
    }
    corpus = std::move(opened).TakeValue();
    sched.corpus = corpus.get();
  }

  dievent::FileSystem* fs = dievent::FileSystem::Default();
  auto listing = fs->ListDir(scenario_dir);
  if (!listing.ok()) {
    std::fprintf(stderr, "dievent_fleet: %s\n",
                 listing.status().ToString().c_str());
    return 2;
  }
  std::vector<std::string> names = std::move(listing).TakeValue();
  std::sort(names.begin(), names.end());

  // Scenes live in a deque so the pointers handed to job specs stay
  // valid while the fleet runs.
  std::deque<dievent::DiningScene> scenes;
  dievent::EventScheduler scheduler(sched);
  int admitted = 0;
  for (const std::string& name : names) {
    if (!EndsWith(name, ".scene")) continue;
    auto scene =
        dievent::LoadSceneConfig(dievent::JoinPath(scenario_dir, name));
    if (!scene.ok()) {
      std::fprintf(stderr, "dievent_fleet: %s: %s\n", name.c_str(),
                   scene.status().ToString().c_str());
      return 2;
    }
    scenes.push_back(std::move(scene).TakeValue());

    dievent::EventJobSpec spec;
    spec.name = name.substr(0, name.size() - std::strlen(".scene"));
    spec.scene = &scenes.back();
    spec.pipeline.mode = dievent::PipelineMode::kGroundTruth;
    spec.pipeline.parse_video = parse_video;
    if (EndsWith(spec.name, ".low")) {
      spec.priority = dievent::JobPriority::kLow;
      spec.name.resize(spec.name.size() - std::strlen(".low"));
    } else if (EndsWith(spec.name, ".high")) {
      spec.priority = dievent::JobPriority::kHigh;
      spec.name.resize(spec.name.size() - std::strlen(".high"));
    }
    if (!out_dir.empty()) {
      spec.store_dir = dievent::JoinPath(out_dir, spec.name);
    }
    scheduler.Submit(std::move(spec));
    ++admitted;
  }
  if (admitted == 0) {
    std::fprintf(stderr, "dievent_fleet: no *.scene files in %s\n",
                 scenario_dir.c_str());
    return 2;
  }

  dievent::Status drained = scheduler.RunUntilDrained();
  dievent::FleetStats stats = scheduler.stats();
  std::printf("%s\n", stats.ToString().c_str());
  if (!drained.ok()) {
    std::fprintf(stderr, "dievent_fleet: %s\n",
                 drained.ToString().c_str());
    return 1;
  }
  return 0;
}
