// Crash drills for the durable event store and the checkpointed
// pipeline: the writer is killed at every journal frame boundary (and
// torn mid-frame between boundaries) across many seeds, with and
// without a simulated power cut, and recovery must land on EXACTLY the
// acknowledged state — zero acked-record loss, zero duplicate replay —
// and a resumed pipeline run must be bit-identical to an uninterrupted
// one.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/pipeline.h"
#include "io/faulty_file.h"
#include "metadata/durable_store.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

std::string FreshDir(const std::string& name) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = testing::TempDir() + "/" + name;
  if (fs->Exists(dir)) {
    auto names = fs->ListDir(dir);
    EXPECT_TRUE(names.ok()) << names.status().ToString();
    for (const std::string& n : names.value()) {
      EXPECT_TRUE(fs->Remove(JoinPath(dir, n)).ok());
    }
  }
  return dir;
}

/// Serializes a repository's logical state (sequence-independent): the
/// byte-identity oracle for "recovered exactly the acked records".
std::string StateBytes(const MetadataRepository& repo,
                       const std::string& scratch_name) {
  FileSystem* fs = FileSystem::Default();
  const std::string path = testing::TempDir() + "/" + scratch_name;
  EXPECT_TRUE(repo.Save(fs, path, 0).ok());
  auto data = fs->ReadFile(path);
  EXPECT_TRUE(data.ok());
  EXPECT_TRUE(fs->Remove(path).ok());
  return data.value();
}

// --- the mutation schedule -----------------------------------------------
// A fixed sequence of store mutations, every record a pure function of
// (seed, step), with a mid-run checkpoint. Each schedule step can be
// applied to a DurableEventStore (journaled) or to a bare repository
// (the expected-state oracle).

constexpr int kFramesPerDrill = 3;
constexpr int kCheckpointAfterStep = 7;  // between frame 1 and frame 2

EventContext DrillContext(uint64_t seed) {
  EventContext ctx;
  ctx.event_id = StrFormat("drill-%llu", (unsigned long long)seed);
  ctx.location = "lab";
  ctx.date = "2026-08-08";
  ctx.occasion = "crash drill";
  ctx.menu = {"bits"};
  ctx.temperature_c = 20.0 + seed;
  ctx.num_participants = 3;
  ctx.participant_names = {"A", "B", "C"};
  return ctx;
}

LookAtRecord DrillLookAt(uint64_t seed, int f) {
  LookAtMatrix m(3);
  m.Set(0, (f + static_cast<int>(seed)) % 2 + 1, true);
  m.Set(1, 0, true);
  return LookAtRecord::FromMatrix(f, f * 0.1, m);
}

EmotionRecord DrillEmotion(uint64_t seed, int f) {
  EmotionRecord er;
  er.frame = f;
  er.timestamp_s = f * 0.1;
  er.participant = (f + static_cast<int>(seed)) % 3;
  er.emotion = Emotion::kHappy;
  er.confidence = 0.5 + 0.01 * ((seed + f) % 7);
  return er;
}

OverallEmotionRecord DrillOverall(uint64_t seed, int f) {
  OverallEmotionRecord oe;
  oe.frame = f;
  oe.timestamp_s = f * 0.1;
  oe.overall_happiness = 0.3 + 0.01 * f + 0.001 * seed;
  oe.mean_valence = 0.1 * f;
  oe.observed = 3;
  return oe;
}

/// Total schedule steps: context, fps, 3 records per frame, plus the
/// mid-run checkpoint step.
constexpr int kDrillSteps = 2 + 3 * kFramesPerDrill + 1;

/// Applies schedule step `step` to the store. Checkpoint steps mutate
/// no state; every other step journals exactly one record.
Status ApplyStepToStore(uint64_t seed, int step, DurableEventStore* store) {
  if (step == kCheckpointAfterStep) return store->Checkpoint();
  const int s = step > kCheckpointAfterStep ? step - 1 : step;
  if (s == 0) return store->SetContext(DrillContext(seed));
  if (s == 1) return store->SetFps(12.5);
  const int f = (s - 2) / 3;
  switch ((s - 2) % 3) {
    case 0:
      return store->AddLookAt(DrillLookAt(seed, f));
    case 1:
      return store->AddEmotion(DrillEmotion(seed, f));
    default:
      return store->AddOverallEmotion(DrillOverall(seed, f));
  }
}

/// Mirror of ApplyStepToStore against the in-memory oracle.
void ApplyStepToRepo(uint64_t seed, int step, MetadataRepository* repo) {
  if (step == kCheckpointAfterStep) return;
  const int s = step > kCheckpointAfterStep ? step - 1 : step;
  if (s == 0) {
    repo->SetContext(DrillContext(seed));
    return;
  }
  if (s == 1) {
    repo->set_fps(12.5);
    return;
  }
  const int f = (s - 2) / 3;
  switch ((s - 2) % 3) {
    case 0:
      ASSERT_TRUE(repo->AddLookAt(DrillLookAt(seed, f)).ok());
      break;
    case 1:
      ASSERT_TRUE(repo->AddEmotion(DrillEmotion(seed, f)).ok());
      break;
    default:
      ASSERT_TRUE(repo->AddOverallEmotion(DrillOverall(seed, f)).ok());
      break;
  }
}

TEST(CrashDrill, EveryFrameBoundaryEverySeedZeroLossZeroDuplicates) {
  FileSystem* base = FileSystem::Default();
  int drills = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    // Probe run: learn the global byte offset after every schedule step
    // — these are the journal frame boundaries (the checkpoint step's
    // boundary spans the snapshot + fresh-segment bytes).
    std::vector<long long> boundaries;
    {
      const std::string dir =
          FreshDir(StrFormat("drill_probe_%llu", (unsigned long long)seed));
      FaultyFileSystem probe_fs(base, FileFaultSpec{});
      DurableStoreOptions options;
      options.fs = &probe_fs;
      auto store = DurableEventStore::Open(dir, options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      boundaries.push_back(probe_fs.bytes_appended());  // post-open
      for (int step = 0; step < kDrillSteps; ++step) {
        ASSERT_TRUE(ApplyStepToStore(seed, step, store.value().get()).ok());
        boundaries.push_back(probe_fs.bytes_appended());
      }
      ASSERT_TRUE(store.value()->Close().ok());
    }

    // Crash points: every boundary, plus a tear a few bytes into the
    // append that follows it.
    std::vector<long long> crash_points;
    for (size_t i = 0; i < boundaries.size(); ++i) {
      crash_points.push_back(boundaries[i]);
      if (i + 1 < boundaries.size() && boundaries[i + 1] > boundaries[i]) {
        crash_points.push_back(
            boundaries[i] +
            std::min<long long>(3, boundaries[i + 1] - boundaries[i] - 1));
      }
    }
    std::sort(crash_points.begin(), crash_points.end());
    crash_points.erase(
        std::unique(crash_points.begin(), crash_points.end()),
        crash_points.end());

    for (size_t ci = 0; ci < crash_points.size(); ++ci) {
      const long long crash_at = crash_points[ci];
      SCOPED_TRACE(StrFormat("seed %llu crash_after_bytes %lld",
                             (unsigned long long)seed, crash_at));
      const std::string dir =
          FreshDir(StrFormat("drill_%llu_%zu", (unsigned long long)seed, ci));
      FileFaultSpec spec;
      spec.seed = seed;
      spec.crash_after_bytes = crash_at;
      FaultyFileSystem faulty(base, spec);
      DurableStoreOptions options;
      options.fs = &faulty;

      int acked_steps = 0;
      {
        auto store = DurableEventStore::Open(dir, options);
        if (store.ok()) {
          for (int step = 0; step < kDrillSteps; ++step) {
            Status s = ApplyStepToStore(seed, step, store.value().get());
            if (!s.ok()) break;  // the crash: the writer is dead
            ++acked_steps;
          }
          // Kill the process image: no Close, no final sync.
          store.value().reset();
        }
      }
      // Half the drills power-cut on top of the kill; with
      // FsyncPolicy::kEveryRecord (the default) acked == synced, so
      // the outcome must not change.
      if (ci % 2 == 1) {
        ASSERT_TRUE(faulty.LoseUnsyncedData().ok());
      }

      // Recovery on the healthy filesystem.
      auto recovered = DurableEventStore::Open(dir);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_TRUE(recovered.value()->broken().ok());

      MetadataRepository expected;
      for (int step = 0; step < acked_steps; ++step) {
        ApplyStepToRepo(seed, step, &expected);
      }
      // Byte-identical logical state: every acknowledged record is
      // present exactly once, nothing more, nothing less.
      EXPECT_EQ(StateBytes(recovered.value()->repository(), "drill_got"),
                StateBytes(expected, "drill_want"));

      // The recovered store is live again: it must accept new writes.
      EXPECT_TRUE(recovered.value()->SetFps(99.0).ok());
      ++drills;
    }
  }
  // ≥ 8 seeds × (steps + tears): the drill actually covered the matrix.
  EXPECT_GE(drills, 8 * kDrillSteps);
}

// --- pipeline checkpointed resume ----------------------------------------

PipelineOptions DrillPipelineOptions(DurableEventStore* store) {
  PipelineOptions opt;
  opt.mode = PipelineMode::kGroundTruth;
  opt.parse_video = false;
  opt.frame_stride = 10;
  opt.store = store;
  opt.checkpoint_every_frames = 7;
  return opt;
}

/// Ground-truth run over the meeting scenario with a store attached;
/// returns Run's status and fills `repo`.
Status RunPipeline(DiningScene* scene, DurableEventStore* store,
                   MetadataRepository* repo, DiEventReport* report_out) {
  DiEventPipeline pipeline(scene, DrillPipelineOptions(store));
  auto report = pipeline.Run(repo);
  if (report.ok() && report_out != nullptr) {
    *report_out = report.value();
  }
  return report.status();
}

TEST(CrashDrill, PipelineResumeIsBitIdenticalToUninterruptedRun) {
  DiningScene scene = MakeMeetingScenario();
  FileSystem* base = FileSystem::Default();

  // Reference: one uninterrupted checkpointed run.
  std::string want;
  long long total_bytes = 0;
  {
    const std::string dir = FreshDir("pipe_uninterrupted");
    FaultyFileSystem meter(base, FileFaultSpec{});
    DurableStoreOptions options;
    options.fs = &meter;
    auto store = DurableEventStore::Open(dir, options);
    ASSERT_TRUE(store.ok());
    MetadataRepository repo;
    ASSERT_TRUE(
        RunPipeline(&scene, store.value().get(), &repo, nullptr).ok());
    ASSERT_TRUE(store.value()->Close().ok());
    want = StateBytes(repo, "pipe_want");
    total_bytes = meter.bytes_appended();
  }
  ASSERT_GT(total_bytes, 0);

  // Kill the writer at several points of the run — early, mid, late —
  // then recover and resume. The resumed run must converge to the same
  // bytes.
  const long long kill_points[] = {total_bytes / 7, total_bytes / 3,
                                   (2 * total_bytes) / 3,
                                   total_bytes - 40};
  int resumed_runs = 0;
  for (long long kill_at : kill_points) {
    SCOPED_TRACE(StrFormat("kill at byte %lld of %lld", kill_at,
                           total_bytes));
    const std::string dir =
        FreshDir(StrFormat("pipe_crash_%lld", kill_at));
    {
      FileFaultSpec spec;
      spec.crash_after_bytes = kill_at;
      FaultyFileSystem faulty(base, spec);
      DurableStoreOptions options;
      options.fs = &faulty;
      auto store = DurableEventStore::Open(dir, options);
      ASSERT_TRUE(store.ok());
      MetadataRepository repo;
      Status s = RunPipeline(&scene, store.value().get(), &repo, nullptr);
      ASSERT_FALSE(s.ok()) << "crash byte never reached";
      store.value().reset();  // killed, not closed
      ASSERT_TRUE(faulty.LoseUnsyncedData().ok());  // power cut too
    }
    // Recover + resume on the healthy filesystem.
    auto store = DurableEventStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    MetadataRepository repo;
    DiEventReport report;
    Status s = RunPipeline(&scene, store.value().get(), &repo, &report);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_TRUE(store.value()->Close().ok());
    EXPECT_EQ(StateBytes(repo, "pipe_got"), want);
    if (report.degradation.resumed_from_frame >= 0) {
      ++resumed_runs;
      EXPECT_GT(report.degradation.resume_reused_frames, 0);
    }
    // The resume must also be visible end-to-end: re-opening the store
    // yields the same bytes again (the final checkpoint folded it).
    auto final_store = DurableEventStore::Open(dir);
    ASSERT_TRUE(final_store.ok());
    EXPECT_EQ(StateBytes(final_store.value()->repository(), "pipe_disk"),
              want);
  }
  EXPECT_GT(resumed_runs, 0) << "no kill point exercised an actual resume";
}

TEST(CrashDrill, RerunOverACompleteStoreIsANoOpResume) {
  DiningScene scene = MakeMeetingScenario();
  const std::string dir = FreshDir("pipe_rerun");
  std::string want;
  {
    auto store = DurableEventStore::Open(dir);
    ASSERT_TRUE(store.ok());
    MetadataRepository repo;
    ASSERT_TRUE(
        RunPipeline(&scene, store.value().get(), &repo, nullptr).ok());
    ASSERT_TRUE(store.value()->Close().ok());
    want = StateBytes(repo, "rerun_want");
  }
  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok());
  MetadataRepository repo;
  DiEventReport report;
  ASSERT_TRUE(
      RunPipeline(&scene, store.value().get(), &repo, &report).ok());
  EXPECT_EQ(StateBytes(repo, "rerun_got"), want);
  EXPECT_GE(report.degradation.resumed_from_frame, 0);
  EXPECT_EQ(report.degradation.resume_reused_frames,
            report.frames_processed);
  // No frame was reprocessed; the summary still matches a full run.
  EXPECT_EQ(report.frames_processed, 61);
}

}  // namespace
}  // namespace dievent
