/// \file dievent_fleet.cc
/// Runs a directory of scenario configs as a multi-tenant fleet:
///
///   dievent_fleet --out /data/fleet --max-concurrent 4 scenarios/
///   dievent_fsck --fleet /data/fleet   # inspect the stores afterwards
///
/// Exit codes:
///   0  every admitted tenant completed (and, with --corpus, registered)
///   1  at least one tenant was parked (its error budget ran out), or a
///      completed tenant's store could not be registered in the corpus
///   2  usage or environmental error (bad flag or flag value, unreadable
///      directory, unparsable scene)

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "common/flags.h"
#include "fleet/scheduler.h"
#include "io/file.h"
#include "metadata/corpus.h"
#include "sim/scene_config.h"

int main(int argc, char** argv) {
  dievent::SchedulerOptions sched;
  sched.checkpoint_every_frames = 8;
  int shed_above = 0;
  std::string scenario_dir;
  std::string out_dir;
  std::string corpus_dir;
  bool parse_video = false;

  dievent::FlagParser flags(
      "dievent_fleet",
      "Runs every *.scene config (sim/scene_config.h) in <scenario-dir> as\n"
      "one ground-truth tenant of the event scheduler; a free runner starts\n"
      "the highest-priority waiting tenant (x.low.scene, x.high.scene).");
  flags.String("out", &out_dir, "DIR",
               "root of the per-tenant durable stores\n(default: in memory)");
  flags.Int("max-concurrent", &sched.max_concurrent, 1, 256,
            "runner threads (default 2)");
  flags.Int("max-attempts", &sched.max_attempts, 1, INT_MAX,
            "error budget per tenant (default 3)");
  flags.Double("watchdog", &sched.watchdog_deadline_s, 0, INT_MAX,
               "interrupt a tenant committing no frame for X seconds\n"
               "(default: off)");
  flags.Int("checkpoint-every", &sched.checkpoint_every_frames, 0, INT_MAX,
            "checkpoint stores every N frames (default 8)");
  flags.Int("shed-above", &shed_above, 0, INT_MAX,
            "shed low-priority admissions while N or more tenants\n"
            "wait (default: off)");
  flags.Double("defer-latency", &sched.defer_latency_above_s, 0, INT_MAX,
               "defer low-priority dispatch while the fleet P95 frame\n"
               "latency exceeds X seconds (default: off)");
  flags.String("corpus", &corpus_dir, "DIR",
               "publish each completed tenant's store to the event\n"
               "corpus at DIR (needs --out; query it with dievent_query)");
  flags.Bool("parse-video", &parse_video, "enable video composition analysis");
  flags.Positional("scenario-dir", &scenario_dir);
  flags.ParseOrExit(argc, argv);
  sched.shed_waiting_above = static_cast<size_t>(shed_above);
  if (!corpus_dir.empty() && out_dir.empty()) {
    flags.Fail("--corpus needs --out: only stores can be registered");
  }
  // The corpus resolves a relative store path against its own root, not
  // the working directory: hand it absolute paths.
  std::error_code error;
  for (std::string* dir : {&out_dir, &corpus_dir}) {
    if (!dir->empty()) *dir = std::filesystem::absolute(*dir, error).string();
    if (error) {
      std::fprintf(stderr, "dievent_fleet: %s\n", error.message().c_str());
      return 2;
    }
  }

  // The corpus must outlive the scheduler that registers into it.
  std::unique_ptr<dievent::EventCorpus> corpus;
  if (!corpus_dir.empty()) {
    auto opened = dievent::EventCorpus::Open(corpus_dir);
    if (!opened.ok()) {
      return flags.Error(opened.status().WithContext("--corpus " + corpus_dir));
    }
    corpus = std::move(opened).TakeValue();
    sched.corpus = corpus.get();
  }

  dievent::FileSystem* fs = dievent::FileSystem::Default();
  auto listing = fs->ListDir(scenario_dir);
  if (!listing.ok()) return flags.Error(listing.status());
  std::vector<std::string> names = std::move(listing).TakeValue();
  std::sort(names.begin(), names.end());

  // Scenes live in a deque so the pointers handed to job specs stay
  // valid while the fleet runs.
  std::deque<dievent::DiningScene> scenes;
  dievent::EventScheduler scheduler(sched);
  int admitted = 0;
  for (const std::string& name : names) {
    if (!name.ends_with(".scene")) continue;
    auto scene =
        dievent::LoadSceneConfig(dievent::JoinPath(scenario_dir, name));
    if (!scene.ok()) return flags.Error(scene.status().WithContext(name));
    scenes.push_back(std::move(scene).TakeValue());

    dievent::EventJobSpec spec;
    spec.name = name.substr(0, name.size() - std::strlen(".scene"));
    spec.scene = &scenes.back();
    spec.pipeline.mode = dievent::PipelineMode::kGroundTruth;
    spec.pipeline.parse_video = parse_video;
    if (spec.name.ends_with(".low")) {
      spec.priority = dievent::JobPriority::kLow;
      spec.name.resize(spec.name.size() - std::strlen(".low"));
    } else if (spec.name.ends_with(".high")) {
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
  if (stats.corpus_register_failures > 0) {
    std::fprintf(stderr,
                 "dievent_fleet: %d completed tenant(s) not registered in "
                 "the corpus\n",
                 stats.corpus_register_failures);
    return 1;
  }
  return 0;
}
