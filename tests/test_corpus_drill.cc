// Corpus crash drills: the batched-ingest writer is power-cut at every
// journal frame boundary (and torn mid-frame) across seeds. Recovery
// must land on exactly the acknowledged batches — zero acked-record
// loss, zero duplicate replay — and every query over the recovered
// shard must be bit-identical to the uninterrupted oracle. A separate
// drill kills SealShard between shard data and the manifest rename:
// the corpus must come back as if the seal never happened, and a
// re-seal must publish the identical shard. Every recovered store and
// sealed shard must also verify clean under fsck.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "io/faulty_file.h"
#include "metadata/corpus.h"
#include "metadata/durable_store.h"
#include "metadata/fsck.h"
#include "metadata/query_parser.h"

namespace dievent {
namespace {

std::string FreshDir(const std::string& name) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = testing::TempDir() + "/" + name;
  if (fs->Exists(dir)) {
    auto names = fs->ListDir(dir);
    EXPECT_TRUE(names.ok());
    for (const std::string& n : names.value()) {
      const std::string path = JoinPath(dir, n);
      auto nested = fs->ListDir(path);
      if (nested.ok()) {  // a shard directory: wipe contents, then rmdir
        for (const std::string& inner : nested.value()) {
          EXPECT_TRUE(fs->Remove(JoinPath(path, inner)).ok());
        }
        EXPECT_TRUE(fs->RemoveDir(path).ok());
      } else {
        EXPECT_TRUE(fs->Remove(path).ok());
      }
    }
  }
  return dir;
}

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

// --- the batched mutation schedule ---------------------------------------
// A fixed sequence of store mutations where most steps are multi-record
// AppendBatch calls (1-4 records each, mixed types), every record a
// pure function of (seed, step), with a mid-run checkpoint. A batch is
// the atomicity unit: after a crash, either all of its records
// survived or none did.

constexpr int kDrillBatches = 6;
constexpr int kCheckpointAfterStep = 4;  // after batches 0-2
constexpr int kDrillSteps = 1 + kDrillBatches + 1;  // context + checkpoint

LookAtRecord DrillLookAt(uint64_t seed, int f) {
  LookAtMatrix m(4);
  m.Set(0, (f + static_cast<int>(seed)) % 3 + 1, true);
  if ((f + static_cast<int>(seed)) % 2 == 0) m.Set(1, 0, true);
  return LookAtRecord::FromMatrix(f, f * 0.1, m);
}

OverallEmotionRecord DrillOverall(uint64_t seed, int f) {
  OverallEmotionRecord oe;
  oe.frame = f;
  oe.timestamp_s = f * 0.1;
  oe.overall_happiness = 0.2 + 0.05 * f + 0.001 * seed;
  oe.mean_valence = 0.03 * f - 0.1;
  oe.observed = 4;
  return oe;
}

EmotionRecord DrillEmotion(uint64_t seed, int f) {
  EmotionRecord er;
  er.frame = f;
  er.timestamp_s = f * 0.1;
  er.participant = (f + static_cast<int>(seed)) % 4;
  er.emotion = Emotion::kHappy;
  er.confidence = 0.6 + 0.01 * ((seed + f) % 5);
  return er;
}

EventContext DrillContext(uint64_t seed) {
  EventContext ctx;
  ctx.event_id = StrFormat("drill-%llu", (unsigned long long)seed);
  ctx.location = "lab";
  ctx.occasion = "corpus drill";
  ctx.num_participants = 4;
  return ctx;
}

/// Batch `b` of the schedule: 1-4 records, mixed types, frames strictly
/// increasing across batches (3 frames per batch keeps ordering valid).
RecordBatch DrillBatch(uint64_t seed, int b) {
  RecordBatch batch;
  const int base = 3 * b;
  batch.lookat.push_back(DrillLookAt(seed, base));
  if (b % 2 == 0) batch.lookat.push_back(DrillLookAt(seed, base + 1));
  batch.overall.push_back(DrillOverall(seed, base));
  if (b % 3 == 0) batch.emotions.push_back(DrillEmotion(seed, base));
  return batch;
}

Status ApplyStepToStore(uint64_t seed, int step, DurableEventStore* store) {
  if (step == 0) return store->SetContext(DrillContext(seed));
  if (step == kCheckpointAfterStep) return store->Checkpoint();
  const int b = (step < kCheckpointAfterStep ? step : step - 1) - 1;
  return store->AppendBatch(DrillBatch(seed, b));
}

void ApplyStepToRepo(uint64_t seed, int step, MetadataRepository* repo) {
  if (step == 0) {
    repo->SetContext(DrillContext(seed));
    return;
  }
  if (step == kCheckpointAfterStep) return;
  const int b = (step < kCheckpointAfterStep ? step : step - 1) - 1;
  const RecordBatch batch = DrillBatch(seed, b);
  for (const LookAtRecord& r : batch.lookat) {
    ASSERT_TRUE(repo->AddLookAt(r).ok());
  }
  for (const EmotionRecord& r : batch.emotions) {
    ASSERT_TRUE(repo->AddEmotion(r).ok());
  }
  for (const OverallEmotionRecord& r : batch.overall) {
    ASSERT_TRUE(repo->AddOverallEmotion(r).ok());
  }
}

/// Frame queries every drill verifies; together they touch every
/// predicate family and the time index.
std::vector<FrameMatch> RunQuery(const MetadataRepository& repo,
                                 const char* text) {
  auto query = ParseQuery(text, &repo);
  EXPECT_TRUE(query.ok()) << text << ": " << query.status().ToString();
  return query.ok() ? query.value().Execute() : std::vector<FrameMatch>{};
}

void ExpectQueriesBitIdentical(const MetadataRepository& got,
                               const MetadataRepository& want) {
  for (const char* text :
       {"look(P1, P2)", "watched(P1)", "oh >= 0.4", "time[0.2, 1.1)",
        "feel(P1, happy)", "time[0.3, 0.9) & valence >= -0.05"}) {
    EXPECT_EQ(RunQuery(got, text), RunQuery(want, text)) << text;
  }
}

TEST(CorpusDrill, BatchedIngestPowerCutAtEveryFrameBoundary) {
  FileSystem* base = FileSystem::Default();
  int drills = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    // Probe run: the journal frame boundaries are the byte offsets
    // after each acked step.
    std::vector<long long> boundaries;
    {
      const std::string dir = FreshDir(
          StrFormat("corpus_drill_probe_%llu", (unsigned long long)seed));
      FaultyFileSystem probe_fs(base, FileFaultSpec{});
      DurableStoreOptions options;
      options.fs = &probe_fs;
      auto store = DurableEventStore::Open(dir, options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      boundaries.push_back(probe_fs.bytes_appended());
      for (int step = 0; step < kDrillSteps; ++step) {
        ASSERT_TRUE(ApplyStepToStore(seed, step, store.value().get()).ok());
        boundaries.push_back(probe_fs.bytes_appended());
      }
      ASSERT_TRUE(store.value()->Close().ok());
    }

    // Crash points: every boundary plus a tear a few bytes into the
    // following append — a torn batch frame must vanish on recovery.
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
      const std::string dir = FreshDir(StrFormat(
          "corpus_drill_%llu_%zu", (unsigned long long)seed, ci));
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
          store.value().reset();  // killed, not closed
        }
      }
      // Every other drill also loses unsynced data: AppendBatch syncs
      // once per batch (FsyncPolicy::kEveryRecord), so acked == synced
      // and the power cut must not change the outcome.
      if (ci % 2 == 1) {
        ASSERT_TRUE(faulty.LoseUnsyncedData().ok());
      }

      auto recovered = DurableEventStore::Open(dir);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_TRUE(recovered.value()->broken().ok());

      MetadataRepository expected;
      for (int step = 0; step < acked_steps; ++step) {
        ApplyStepToRepo(seed, step, &expected);
      }
      // Zero acked loss, zero dupes: the recovered logical state is
      // byte-identical to replaying exactly the acked batches.
      EXPECT_EQ(
          StateBytes(recovered.value()->repository(), "corpus_drill_got"),
          StateBytes(expected, "corpus_drill_want"));
      ExpectQueriesBitIdentical(recovered.value()->repository(), expected);

      // A recovered store accepts new batches.
      RecordBatch tail;
      tail.lookat.push_back(DrillLookAt(seed, 1000));
      EXPECT_TRUE(recovered.value()->AppendBatch(tail).ok());

      // fsck accepts exactly what recovery replays: the recovered
      // journal's kRecBatch frames verify clean.
      ASSERT_TRUE(recovered.value()->Close().ok());
      auto fsck = RunFsck(base, dir);
      ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
      EXPECT_TRUE(fsck.value().clean()) << fsck.value().ToString();
      ++drills;
    }
  }
  EXPECT_GE(drills, 6 * kDrillSteps);
}

TEST(CorpusDrill, SealCrashLeavesCorpusAsIfSealNeverHappened) {
  FileSystem* base = FileSystem::Default();
  const uint64_t seed = 11;

  // Oracle: an uninterrupted ingest + seal, and its query results.
  std::string want_state;
  std::vector<FrameMatch> want_matches;
  long long total_bytes = 0;
  {
    const std::string dir = FreshDir("corpus_seal_oracle");
    FaultyFileSystem meter(base, FileFaultSpec{});
    CorpusOptions options;
    options.fs = &meter;
    auto corpus = EventCorpus::Open(dir, options);
    ASSERT_TRUE(corpus.ok());
    auto store = corpus.value()->BeginShard(DrillContext(seed).event_id);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->SetContext(DrillContext(seed)).ok());
    for (int b = 0; b < kDrillBatches; ++b) {
      ASSERT_TRUE(store.value()->AppendBatch(DrillBatch(seed, b)).ok());
    }
    ASSERT_TRUE(
        corpus.value()->SealShard(DrillContext(seed).event_id).ok());
    total_bytes = meter.bytes_appended();

    auto spec = ParseCorpusQuery("events : look(P1, P2)");
    ASSERT_TRUE(spec.ok());
    auto result = corpus.value()->Query(spec.value());
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().events.size(), 1u);
    want_matches = result.value().events[0].frames;
    ASSERT_FALSE(want_matches.empty());
    auto repo = DurableEventStore::LoadState(
        base, JoinPath(dir, result.value().events[0].shard_dir));
    ASSERT_TRUE(repo.ok());
    want_state = StateBytes(repo.value(), "seal_oracle_state");
  }
  ASSERT_GT(total_bytes, 0);

  // Kill the whole ingest+seal at several byte offsets — including
  // inside the seal's checkpoint and manifest write — then recover.
  int seal_crashes = 0;
  for (long long crash_at = total_bytes - 1; crash_at > 0;
       crash_at -= std::max<long long>(1, total_bytes / 17)) {
    SCOPED_TRACE(StrFormat("crash at byte %lld of %lld", crash_at,
                           total_bytes));
    const std::string dir =
        FreshDir(StrFormat("corpus_seal_crash_%lld", crash_at));
    bool sealed = false;
    {
      FileFaultSpec spec;
      spec.seed = seed;
      spec.crash_after_bytes = crash_at;
      FaultyFileSystem faulty(base, spec);
      CorpusOptions options;
      options.fs = &faulty;
      auto corpus = EventCorpus::Open(dir, options);
      if (corpus.ok()) {
        auto store =
            corpus.value()->BeginShard(DrillContext(seed).event_id);
        if (store.ok()) {
          bool ok = store.value()->SetContext(DrillContext(seed)).ok();
          for (int b = 0; ok && b < kDrillBatches; ++b) {
            ok = store.value()->AppendBatch(DrillBatch(seed, b)).ok();
          }
          if (ok) {
            sealed =
                corpus.value()->SealShard(DrillContext(seed).event_id).ok();
          }
        }
      }
      ASSERT_TRUE(faulty.LoseUnsyncedData().ok());  // power cut too
    }

    // Recovery on the healthy filesystem: either the seal completed and
    // the shard answers queries, or the corpus looks as if the seal
    // never happened — then resume + re-seal must converge to the
    // oracle.
    auto corpus = EventCorpus::Open(dir);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    if (!sealed) {
      EXPECT_TRUE(corpus.value()->shards().empty())
          << "unsealed shard leaked into the manifest";
      ++seal_crashes;
      auto resumed =
          corpus.value()->ResumeShard(DrillContext(seed).event_id);
      if (!resumed.ok()) {
        // Crashed before the shard directory existed; start over.
        ASSERT_EQ(resumed.status().code(), StatusCode::kNotFound);
        auto store =
            corpus.value()->BeginShard(DrillContext(seed).event_id);
        ASSERT_TRUE(store.ok());
        resumed = store;
      }
      // Re-drive the schedule idempotently: batches are atomic, so the
      // recovered shard holds a prefix of them — append the rest.
      ASSERT_TRUE(resumed.value()->SetContext(DrillContext(seed)).ok());
      const auto& lookat = resumed.value()->repository().lookat_records();
      const int recovered_batches =
          lookat.empty() ? 0 : lookat.back().frame / 3 + 1;
      for (int b = recovered_batches; b < kDrillBatches; ++b) {
        ASSERT_TRUE(
            resumed.value()->AppendBatch(DrillBatch(seed, b)).ok());
      }
      ASSERT_TRUE(
          corpus.value()->SealShard(DrillContext(seed).event_id).ok());
    }
    auto spec = ParseCorpusQuery("events : look(P1, P2)");
    ASSERT_TRUE(spec.ok());
    auto result = corpus.value()->Query(spec.value());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().events.size(), 1u);
    EXPECT_EQ(result.value().events[0].frames, want_matches);
    auto repo = DurableEventStore::LoadState(
        base, JoinPath(dir, result.value().events[0].shard_dir));
    ASSERT_TRUE(repo.ok());
    EXPECT_EQ(StateBytes(repo.value(), "seal_crash_state"), want_state);
    auto fsck = RunFsck(
        base, JoinPath(dir, result.value().events[0].shard_dir));
    ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
    EXPECT_TRUE(fsck.value().clean()) << fsck.value().ToString();
  }
  EXPECT_GT(seal_crashes, 0) << "no crash point interrupted the seal";
}

}  // namespace
}  // namespace dievent
