// DurableEventStore: journaled mutations, recovery, checkpoint
// protocol, replay dedup, and failure wedging (metadata/durable_store.h).

#include "metadata/durable_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/faulty_file.h"
#include "io/journal.h"
#include "metadata/record_codec.h"
#include "video/video_structure.h"

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

LookAtRecord La(int frame, double t, int n,
                std::vector<std::pair<int, int>> edges) {
  LookAtMatrix m(n);
  for (auto [a, b] : edges) m.Set(a, b, true);
  return LookAtRecord::FromMatrix(frame, t, m);
}

EventContext Ctx() {
  EventContext ctx;
  ctx.event_id = "evt-durable";
  ctx.location = "dining room";
  ctx.date = "2026-08-08";
  ctx.occasion = "dinner";
  ctx.menu = {"soup", "bread"};
  ctx.temperature_c = 20.0;
  ctx.num_participants = 3;
  ctx.participant_names = {"A", "B", "C"};
  ctx.relations.push_back({0, 2, "siblings"});
  return ctx;
}

/// Writes a few of everything through the store. Returns the number of
/// journaled records (= final sequence number on a fresh store).
uint64_t PopulateStore(DurableEventStore* store, int frames) {
  uint64_t n = 0;
  EXPECT_TRUE(store->SetContext(Ctx()).ok());
  ++n;
  EXPECT_TRUE(store->SetFps(10.0).ok());
  ++n;
  for (int f = 0; f < frames; ++f) {
    EXPECT_TRUE(store->AddLookAt(La(f, f * 0.1, 3, {{0, 1}, {1, 0}})).ok());
    ++n;
    EmotionRecord er;
    er.frame = f;
    er.timestamp_s = f * 0.1;
    er.participant = f % 3;
    er.emotion = Emotion::kHappy;
    er.confidence = 0.75;
    EXPECT_TRUE(store->AddEmotion(er).ok());
    ++n;
    OverallEmotionRecord oe;
    oe.frame = f;
    oe.timestamp_s = f * 0.1;
    oe.overall_happiness = 0.4 + 0.01 * f;
    oe.mean_valence = 0.2;
    oe.observed = 3;
    EXPECT_TRUE(store->AddOverallEmotion(oe).ok());
    ++n;
  }
  return n;
}

void ExpectSameState(const MetadataRepository& got,
                     const MetadataRepository& want) {
  EXPECT_EQ(got.context().event_id, want.context().event_id);
  EXPECT_EQ(got.context().participant_names,
            want.context().participant_names);
  EXPECT_EQ(got.fps(), want.fps());
  ASSERT_EQ(got.lookat_records().size(), want.lookat_records().size());
  for (size_t i = 0; i < want.lookat_records().size(); ++i) {
    EXPECT_EQ(got.lookat_records()[i].frame, want.lookat_records()[i].frame);
    EXPECT_EQ(got.lookat_records()[i].cells, want.lookat_records()[i].cells);
  }
  ASSERT_EQ(got.emotion_records().size(), want.emotion_records().size());
  ASSERT_EQ(got.overall_records().size(), want.overall_records().size());
  for (size_t i = 0; i < want.overall_records().size(); ++i) {
    EXPECT_EQ(got.overall_records()[i].overall_happiness,
              want.overall_records()[i].overall_happiness);
  }
  EXPECT_EQ(got.shots().size(), want.shots().size());
  EXPECT_EQ(got.NumScenes(), want.NumScenes());
}

TEST(DurableStore, JournalOnlyStateSurvivesReopen) {
  const std::string dir = FreshDir("store_roundtrip");
  uint64_t appended = 0;
  {
    auto store = DurableEventStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_FALSE(store.value()->recovery().snapshot_loaded);
    appended = PopulateStore(store.value().get(), 4);
    EXPECT_EQ(store.value()->stats().records_appended, appended);
    ASSERT_TRUE(store.value()->Close().ok());
  }
  auto reopened = DurableEventStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const RecoveryInfo& rec = reopened.value()->recovery();
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_EQ(rec.records_replayed, appended);
  EXPECT_EQ(rec.records_deduped, 0u);
  EXPECT_FALSE(rec.tail_truncated);
  EXPECT_EQ(reopened.value()->repository().lookat_records().size(), 4u);
  EXPECT_EQ(reopened.value()->repository().context().event_id,
            "evt-durable");
  EXPECT_EQ(reopened.value()->repository().fps(), 10.0);
}

TEST(DurableStore, CheckpointFoldsJournalIntoSnapshot) {
  const std::string dir = FreshDir("store_checkpoint");
  MetadataRepository want;
  {
    auto store = DurableEventStore::Open(dir);
    ASSERT_TRUE(store.ok());
    PopulateStore(store.value().get(), 3);
    ASSERT_TRUE(store.value()->Checkpoint().ok());
    // Post-checkpoint mutations land in the fresh journal.
    ASSERT_TRUE(
        store.value()->AddLookAt(La(3, 0.3, 3, {{2, 0}})).ok());
    EXPECT_EQ(store.value()->stats().checkpoints, 1u);
    want = store.value()->repository();
    ASSERT_TRUE(store.value()->Close().ok());
  }
  // The old segments were retired: only the snapshot and the one
  // post-checkpoint segment remain.
  FileSystem* fs = FileSystem::Default();
  auto names = fs->ListDir(dir);
  ASSERT_TRUE(names.ok());
  int segments = 0;
  bool snapshot = false;
  for (const std::string& n : names.value()) {
    if (ParseJournalSegmentName(n) >= 0) ++segments;
    if (n == kSnapshotFileName) snapshot = true;
  }
  EXPECT_EQ(segments, 1);
  EXPECT_TRUE(snapshot);

  auto reopened = DurableEventStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const RecoveryInfo& rec = reopened.value()->recovery();
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_EQ(rec.snapshot_version, 2u);
  EXPECT_EQ(rec.records_replayed, 1u);  // only the post-checkpoint record
  EXPECT_EQ(rec.records_deduped, 0u);
  ExpectSameState(reopened.value()->repository(), want);
}

TEST(DurableStore, StaleSegmentsDedupAgainstTheSnapshot) {
  // Crash-mid-checkpoint shape: a snapshot that already folded the
  // whole journal in, with the journal segments still on disk. Every
  // journal record must dedup; none may apply twice.
  const std::string dir = FreshDir("store_dedup");
  MetadataRepository want;
  uint64_t appended = 0;
  {
    auto store = DurableEventStore::Open(dir);
    ASSERT_TRUE(store.ok());
    appended = PopulateStore(store.value().get(), 3);
    want = store.value()->repository();
    ASSERT_TRUE(store.value()->Close().ok());
  }
  // Hand-write the snapshot the checkpoint would have produced, leaving
  // the journal untouched (as if the crash hit before segment removal).
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(
      want.Save(fs, JoinPath(dir, kSnapshotFileName), appended).ok());

  auto reopened = DurableEventStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const RecoveryInfo& rec = reopened.value()->recovery();
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_EQ(rec.snapshot_sequence, appended);
  EXPECT_EQ(rec.records_replayed, 0u);
  EXPECT_EQ(rec.records_deduped, appended);
  ExpectSameState(reopened.value()->repository(), want);
}

TEST(DurableStore, TornTailIsSalvagedTruncatedAndWritableAgain) {
  const std::string dir = FreshDir("store_torn");
  {
    auto store = DurableEventStore::Open(dir);
    ASSERT_TRUE(store.ok());
    PopulateStore(store.value().get(), 2);
    ASSERT_TRUE(store.value()->Close().ok());
  }
  FileSystem* fs = FileSystem::Default();
  const std::string seg = JoinPath(dir, JournalSegmentName(0));
  auto size = fs->FileSize(seg);
  ASSERT_TRUE(size.ok());
  {
    auto f = fs->OpenForAppend(seg);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append("torn!").ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }

  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store.value()->recovery().tail_truncated);
  EXPECT_EQ(store.value()->recovery().bytes_discarded, 5u);
  // The tail was physically truncated, and the store keeps accepting
  // writes whose sequence continues from the salvaged prefix.
  EXPECT_EQ(fs->FileSize(seg).value(), size.value());
  ASSERT_TRUE(store.value()->AddLookAt(La(2, 0.2, 3, {{0, 2}})).ok());
  ASSERT_TRUE(store.value()->Close().ok());

  auto again = DurableEventStore::Open(dir);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again.value()->recovery().tail_truncated);
  EXPECT_EQ(again.value()->repository().lookat_records().size(), 3u);
}

/// Hand-frames a store journal payload: [type][seq][body].
std::string StorePayload(uint8_t type, uint64_t seq,
                         const std::string& body) {
  std::string payload;
  BinWriter w(&payload);
  w.U8(type);
  w.U64(seq);
  payload.append(body);
  return payload;
}

TEST(DurableStore, SequenceGapIsCorruptionNotSilence) {
  const std::string dir = FreshDir("store_gap");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  auto writer = JournalWriter::Open(fs, dir, 0, JournalOptions{});
  ASSERT_TRUE(writer.ok());
  std::string fps_body;
  BinWriter(&fps_body).F64(10.0);
  ASSERT_TRUE(writer.value()->AppendBatch({StorePayload(5, 1, fps_body)}).ok());
  ASSERT_TRUE(writer.value()->AppendBatch({StorePayload(5, 3, fps_body)}).ok());
  ASSERT_TRUE(writer.value()->Close().ok());

  auto store = DurableEventStore::Open(dir);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
  EXPECT_NE(store.status().message().find("sequence gap"),
            std::string::npos)
      << store.status().ToString();
}

TEST(DurableStore, UnknownRecordTypeIsCorruption) {
  const std::string dir = FreshDir("store_unknown_type");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  auto writer = JournalWriter::Open(fs, dir, 0, JournalOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->AppendBatch({StorePayload(99, 1, "???")}).ok());
  ASSERT_TRUE(writer.value()->Close().ok());

  auto store = DurableEventStore::Open(dir);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
}

TEST(DurableStore, StrayCheckpointTempIsSweptOnOpen) {
  const std::string dir = FreshDir("store_stray_tmp");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  const std::string stray =
      JoinPath(dir, std::string(kSnapshotFileName) + ".tmp");
  {
    auto f = fs->OpenForWrite(stray);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append("half a snapshot").ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }
  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE(fs->Exists(stray));
  ASSERT_TRUE(store.value()->Close().ok());
}

TEST(DurableStore, FirstFailureWedgesEveryLaterMutation) {
  const std::string dir = FreshDir("store_wedge");
  FileFaultSpec spec;
  // Enough budget for open + a few records, then the disk dies.
  spec.crash_after_bytes = 220;
  FaultyFileSystem fs(FileSystem::Default(), spec);
  DurableStoreOptions options;
  options.fs = &fs;
  auto store = DurableEventStore::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  uint64_t acked = 0;
  Status first_error = Status::OK();
  for (int f = 0; f < 100; ++f) {
    Status s = store.value()->AddLookAt(La(f, f * 0.1, 2, {{0, 1}}));
    if (!s.ok()) {
      first_error = s;
      break;
    }
    ++acked;
  }
  ASSERT_FALSE(first_error.ok()) << "crash_after_bytes never hit";
  EXPECT_TRUE(fs.crashed());
  EXPECT_FALSE(store.value()->broken().ok());
  // Wedged: later mutations and checkpoints echo the original error.
  EXPECT_EQ(store.value()->AddLookAt(La(100, 10.0, 2, {})).code(),
            first_error.code());
  EXPECT_EQ(store.value()->SetFps(1.0).code(), first_error.code());
  EXPECT_EQ(store.value()->Checkpoint().code(), first_error.code());
  EXPECT_EQ(store.value()->stats().records_appended, acked);

  // Recovery over the real filesystem sees exactly the acked records
  // (the torn append was never acknowledged).
  store.value().reset();
  auto recovered = DurableEventStore::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->repository().lookat_records().size(), acked);
}

/// A three-type batch whose frames continue from `first_frame`.
RecordBatch Batch(int first_frame, int frames) {
  RecordBatch batch;
  for (int i = 0; i < frames; ++i) {
    const int f = first_frame + i;
    batch.lookat.push_back(La(f, f * 0.1, 3, {{0, 1}, {1, 0}}));
    if (f % 2 == 0) {
      EmotionRecord er;
      er.frame = f;
      er.timestamp_s = f * 0.1;
      er.participant = f % 3;
      er.emotion = Emotion::kSurprise;
      er.confidence = 0.6;
      batch.emotions.push_back(er);
    }
    OverallEmotionRecord oe;
    oe.frame = f;
    oe.timestamp_s = f * 0.1;
    oe.overall_happiness = 0.3 + 0.01 * f;
    oe.mean_valence = 0.1;
    oe.observed = 3;
    batch.overall.push_back(oe);
  }
  return batch;
}

TEST(DurableStore, AppendBatchRecoversLikeSerialAdds) {
  // Oracle: the same records applied one by one to a bare repository.
  MetadataRepository want;
  want.SetContext(Ctx());
  want.set_fps(10.0);
  for (int first : {0, 6}) {
    const RecordBatch b = Batch(first, 6);
    for (const auto& r : b.lookat) ASSERT_TRUE(want.AddLookAt(r).ok());
    for (const auto& r : b.emotions) ASSERT_TRUE(want.AddEmotion(r).ok());
    for (const auto& r : b.overall) {
      ASSERT_TRUE(want.AddOverallEmotion(r).ok());
    }
  }

  const std::string dir = FreshDir("store_batch");
  {
    auto store = DurableEventStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->SetContext(Ctx()).ok());
    ASSERT_TRUE(store.value()->SetFps(10.0).ok());
    ASSERT_TRUE(store.value()->AppendBatch(Batch(0, 6)).ok());
    ASSERT_TRUE(store.value()->AppendBatch(Batch(6, 6)).ok());
    ExpectSameState(store.value()->repository(), want);
    ASSERT_TRUE(store.value()->Close().ok());
  }
  // Crash-free reopen replays the batch frames back to the same state.
  auto reopened = DurableEventStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectSameState(reopened.value()->repository(), want);
}

TEST(DurableStore, AppendBatchValidatesUpFrontAndChangesNothing) {
  const std::string dir = FreshDir("store_batch_invalid");
  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->AppendBatch(Batch(0, 4)).ok());
  const size_t before = store.value()->repository().TotalRecords();
  const uint64_t journaled = store.value()->stats().records_appended;

  // Frame regression inside the batch: rejected whole.
  RecordBatch bad = Batch(4, 2);
  bad.lookat.push_back(La(3, 0.3, 3, {}));
  EXPECT_EQ(store.value()->AppendBatch(bad).code(),
            StatusCode::kFailedPrecondition);
  // Frame regression against already-stored records: also rejected.
  EXPECT_EQ(store.value()->AppendBatch(Batch(1, 2)).code(),
            StatusCode::kFailedPrecondition);
  // A malformed record: rejected without applying the valid prefix.
  RecordBatch malformed = Batch(4, 2);
  malformed.lookat[1].cells.pop_back();
  EXPECT_EQ(store.value()->AppendBatch(malformed).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(store.value()->repository().TotalRecords(), before);
  EXPECT_EQ(store.value()->stats().records_appended, journaled);
  // An empty batch is an acknowledged no-op.
  EXPECT_TRUE(store.value()->AppendBatch(RecordBatch{}).ok());
  // The store is not wedged: a well-formed batch still lands.
  EXPECT_TRUE(store.value()->AppendBatch(Batch(4, 2)).ok());
  ASSERT_TRUE(store.value()->Close().ok());
}

TEST(DurableStore, LoadStateReadsWithoutDisturbingALiveWriter) {
  const std::string dir = FreshDir("store_loadstate");
  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->SetContext(Ctx()).ok());
  ASSERT_TRUE(store.value()->AppendBatch(Batch(0, 5)).ok());

  // Read-only recovery while the writer is still open (corpus readers
  // inspecting an unsealed shard).
  auto snapshot = DurableEventStore::LoadState(nullptr, dir);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ExpectSameState(snapshot.value(), store.value()->repository());

  // The writer keeps going afterwards, and LoadState sees the growth.
  ASSERT_TRUE(store.value()->AppendBatch(Batch(5, 3)).ok());
  auto again = DurableEventStore::LoadState(nullptr, dir);
  ASSERT_TRUE(again.ok());
  ExpectSameState(again.value(), store.value()->repository());
  ASSERT_TRUE(store.value()->Close().ok());
}

TEST(DurableStore, MutationsAfterCloseFailCleanly) {
  const std::string dir = FreshDir("store_closed");
  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->Close().ok());
  EXPECT_EQ(store.value()->SetFps(1.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.value()->Checkpoint().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(store.value()->Close().ok());  // idempotent
}

TEST(DurableStore, MutationsAfterCloseLeaveStateUntouched) {
  const std::string dir = FreshDir("store_closed_state");
  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok());
  DurableEventStore& s = *store.value();
  PopulateStore(&s, 2);
  ASSERT_TRUE(s.Close().ok());

  // Every single-record mutator refuses a closed store before applying
  // anything in memory.
  EmotionRecord er;
  er.frame = 5;
  OverallEmotionRecord oe;
  oe.frame = 5;
  EventContext other = Ctx();
  other.event_id = "evt-after-close";
  VideoStructure structure;
  structure.fps = 30.0;
  structure.scenes.resize(1);
  structure.scenes[0].shots.resize(1);
  structure.scenes[0].shots[0].end_frame = 5;
  const StatusCode precondition = StatusCode::kFailedPrecondition;
  EXPECT_EQ(s.AddLookAt(La(5, 0.5, 3, {{0, 2}})).code(), precondition);
  EXPECT_EQ(s.AddEmotion(er).code(), precondition);
  EXPECT_EQ(s.AddOverallEmotion(oe).code(), precondition);
  EXPECT_EQ(s.SetContext(other).code(), precondition);
  EXPECT_EQ(s.SetFps(99.0).code(), precondition);
  EXPECT_EQ(s.SetVideoStructure(structure).code(), precondition);

  const MetadataRepository& repo = s.repository();
  EXPECT_EQ(repo.lookat_records().size(), 2u);
  EXPECT_EQ(repo.emotion_records().size(), 2u);
  EXPECT_EQ(repo.overall_records().size(), 2u);
  EXPECT_EQ(repo.fps(), 10.0);
  EXPECT_EQ(repo.context().event_id, "evt-durable");
  EXPECT_TRUE(repo.shots().empty());
  EXPECT_EQ(repo.NumScenes(), 0);
}

}  // namespace
}  // namespace dievent
