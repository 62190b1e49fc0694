// Scrub / verify / repair drills for dievent_fsck's engine
// (metadata/fsck.h): every injected corruption class must be detected
// in verify mode and fixed — with the repaired store reopening cleanly
// — in repair mode.

#include "metadata/fsck.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/file.h"
#include "metadata/durable_store.h"
#include "metadata/record_codec.h"

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

LookAtRecord La(int frame, int n) {
  LookAtMatrix m(n);
  m.Set(0, 1, true);
  return LookAtRecord::FromMatrix(frame, frame * 0.1, m);
}

/// A store with `frames` look-at records (sequences 1..frames).
void BuildStore(const std::string& dir, int frames,
                const DurableStoreOptions& options = {}) {
  auto store = DurableEventStore::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (int f = 0; f < frames; ++f) {
    ASSERT_TRUE(store.value()->AddLookAt(La(f, 3)).ok());
  }
  ASSERT_TRUE(store.value()->Close().ok());
}

bool AnyProblemContains(const FsckReport& report, const std::string& what) {
  for (const std::string& p : report.problems) {
    if (p.find(what) != std::string::npos) return true;
  }
  return false;
}

TEST(Fsck, CleanStoreReportsClean) {
  const std::string dir = FreshDir("fsck_clean");
  BuildStore(dir, 4);
  auto report = RunFsck(FileSystem::Default(), dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().clean()) << report.value().ToString();
  EXPECT_FALSE(report.value().snapshot_present);
  EXPECT_EQ(report.value().journal_segments, 1u);
  EXPECT_EQ(report.value().journal_records, 4u);
  EXPECT_NE(report.value().ToString().find("clean"), std::string::npos);
}

TEST(Fsck, MissingDirectoryIsAnEnvironmentalError) {
  auto report = RunFsck(FileSystem::Default(),
                        testing::TempDir() + "/fsck_no_such_dir");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST(Fsck, StrayCheckpointTempDetectedAndRemoved) {
  const std::string dir = FreshDir("fsck_stray");
  BuildStore(dir, 2);
  FileSystem* fs = FileSystem::Default();
  const std::string stray = JoinPath(dir, "snapshot.dmr.tmp");
  {
    auto f = fs->OpenForWrite(stray);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append("partial checkpoint").ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }
  // Verify mode detects but does not touch the disk.
  auto verify = RunFsck(fs, dir);
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(AnyProblemContains(verify.value(), "stray checkpoint temp"));
  EXPECT_TRUE(fs->Exists(stray));

  FsckOptions repair;
  repair.repair = true;
  auto repaired = RunFsck(fs, dir, repair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(fs->Exists(stray));
  EXPECT_TRUE(repaired.value().verified) << repaired.value().ToString();
  EXPECT_TRUE(RunFsck(fs, dir).value().clean());
}

TEST(Fsck, TornTailDetectedThenTruncated) {
  const std::string dir = FreshDir("fsck_torn");
  BuildStore(dir, 3);
  FileSystem* fs = FileSystem::Default();
  const std::string seg = JoinPath(dir, JournalSegmentName(0));
  {
    auto f = fs->OpenForAppend(seg);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append("half-written frame").ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }
  auto verify = RunFsck(fs, dir);
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(AnyProblemContains(verify.value(), "torn tail"));
  EXPECT_EQ(verify.value().journal_records, 3u);

  FsckOptions repair;
  repair.repair = true;
  auto repaired = RunFsck(fs, dir, repair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired.value().verified) << repaired.value().ToString();
  EXPECT_TRUE(RunFsck(fs, dir).value().clean());
  // The acknowledged records survived the repair.
  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->repository().lookat_records().size(), 3u);
}

TEST(Fsck, MidStreamDamageTruncatesAndQuarantinesLaterSegments) {
  const std::string dir = FreshDir("fsck_midstream");
  DurableStoreOptions options;
  options.journal.rotate_bytes = 96;  // force several segments
  BuildStore(dir, 8, options);
  FileSystem* fs = FileSystem::Default();
  auto names = fs->ListDir(dir);
  ASSERT_TRUE(names.ok());
  int segments = 0;
  for (const std::string& n : names.value()) {
    if (ParseJournalSegmentName(n) >= 0) ++segments;
  }
  ASSERT_GT(segments, 2) << "rotate_bytes did not split the journal";

  // Flip a payload byte in the first segment.
  const std::string seg0 = JoinPath(dir, JournalSegmentName(0));
  auto data = fs->ReadFile(seg0);
  ASSERT_TRUE(data.ok());
  std::string bytes = data.value();
  bytes[bytes.size() - 2] ^= 0x10;
  {
    auto f = fs->OpenForWrite(seg0);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append(bytes).ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }

  auto verify = RunFsck(fs, dir);
  ASSERT_TRUE(verify.ok());
  EXPECT_FALSE(verify.value().clean());
  EXPECT_TRUE(AnyProblemContains(verify.value(), "checksum mismatch"));
  EXPECT_TRUE(AnyProblemContains(verify.value(), "unreachable past"));

  FsckOptions repair;
  repair.repair = true;
  auto repaired = RunFsck(fs, dir, repair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired.value().verified) << repaired.value().ToString();
  // Later segments were quarantined, not deleted.
  bool corrupt_seen = false;
  auto after = fs->ListDir(dir);
  ASSERT_TRUE(after.ok());
  for (const std::string& n : after.value()) {
    if (n.find(".corrupt") != std::string::npos) corrupt_seen = true;
  }
  EXPECT_TRUE(corrupt_seen);
  EXPECT_TRUE(RunFsck(fs, dir).value().clean());
  // The surviving prefix still replays.
  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_GT(store.value()->repository().lookat_records().size(), 0u);
  EXPECT_LT(store.value()->repository().lookat_records().size(), 8u);
}

TEST(Fsck, CorruptSnapshotQuarantinedAndJournalReanchored) {
  const std::string dir = FreshDir("fsck_snapshot");
  FileSystem* fs = FileSystem::Default();
  int post_checkpoint = 0;
  {
    auto store = DurableEventStore::Open(dir);
    ASSERT_TRUE(store.ok());
    for (int f = 0; f < 3; ++f) {
      ASSERT_TRUE(store.value()->AddLookAt(La(f, 3)).ok());
    }
    ASSERT_TRUE(store.value()->Checkpoint().ok());
    for (int f = 3; f < 5; ++f) {
      ASSERT_TRUE(store.value()->AddLookAt(La(f, 3)).ok());
      ++post_checkpoint;
    }
    ASSERT_TRUE(store.value()->Close().ok());
  }
  // Flip a byte inside the snapshot body.
  const std::string snapshot = JoinPath(dir, "snapshot.dmr");
  auto data = fs->ReadFile(snapshot);
  ASSERT_TRUE(data.ok());
  std::string bytes = data.value();
  bytes[bytes.size() / 2] ^= 0x08;
  {
    auto f = fs->OpenForWrite(snapshot);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append(bytes).ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }
  // The store itself refuses to open over the corrupt snapshot.
  EXPECT_EQ(DurableEventStore::Open(dir).status().code(),
            StatusCode::kCorruption);

  auto verify = RunFsck(fs, dir);
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(AnyProblemContains(verify.value(), "snapshot"));
  EXPECT_FALSE(verify.value().snapshot_ok);

  FsckOptions repair;
  repair.repair = true;
  auto repaired = RunFsck(fs, dir, repair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired.value().verified) << repaired.value().ToString();
  EXPECT_TRUE(fs->Exists(snapshot + ".corrupt"));

  // The re-anchored store serves the surviving post-checkpoint records;
  // the checkpointed prefix is reported lost, never silently invented.
  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->repository().lookat_records().size(),
            static_cast<size_t>(post_checkpoint));
  EXPECT_TRUE(RunFsck(fs, dir).value().clean());
}

TEST(Fsck, StructurallyValidButUndecodablePayloadIsCaught) {
  const std::string dir = FreshDir("fsck_badpayload");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  auto writer = JournalWriter::Open(fs, dir, 0, JournalOptions{});
  ASSERT_TRUE(writer.ok());
  std::string good;
  {
    BinWriter w(&good);
    w.U8(5);  // fps record
    w.U64(1);
    w.F64(25.0);
  }
  ASSERT_TRUE(writer.value()->AppendBatch({good}).ok());
  std::string bad;
  {
    BinWriter w(&bad);
    w.U8(99);  // no such record type — CRC-valid frame, rotten payload
    w.U64(2);
  }
  ASSERT_TRUE(writer.value()->AppendBatch({bad}).ok());
  ASSERT_TRUE(writer.value()->Close().ok());

  auto verify = RunFsck(fs, dir);
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(AnyProblemContains(verify.value(), "unknown journal record"));

  FsckOptions repair;
  repair.repair = true;
  auto repaired = RunFsck(fs, dir, repair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired.value().verified) << repaired.value().ToString();
  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->repository().fps(), 25.0);
}

TEST(Fsck, MultiFrameBatchStoreVerifiesCleanAndRepairsNothing) {
  // AppendBatch is the corpus ingest path; a batch past the 1 MiB chunk
  // size spans several kRecBatch frames sharing one write and one sync.
  const std::string dir = FreshDir("fsck_batch");
  FileSystem* fs = FileSystem::Default();
  RecordBatch big;
  for (int f = 0; f < 20000; ++f) big.lookat.push_back(La(f, 6));
  RecordBatch small;
  for (int f = 20000; f < 20005; ++f) small.lookat.push_back(La(f, 6));
  {
    auto store = DurableEventStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store.value()->AppendBatch(big).ok());
    ASSERT_GT(store.value()->stats().records_appended, 1u)
        << "the big batch fit one frame; it no longer spans chunks";
    ASSERT_TRUE(store.value()->AppendBatch(small).ok());
    ASSERT_TRUE(store.value()->Close().ok());
  }

  auto verify = RunFsck(fs, dir);
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_TRUE(verify.value().clean()) << verify.value().ToString();
  EXPECT_GT(verify.value().journal_records, 2u);

  FsckOptions repair;
  repair.repair = true;
  auto repaired = RunFsck(fs, dir, repair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired.value().repairs.empty())
      << repaired.value().ToString();
  EXPECT_TRUE(repaired.value().verified) << repaired.value().ToString();

  auto state = DurableEventStore::LoadState(fs, dir);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  const auto& records = state.value().lookat_records();
  ASSERT_EQ(records.size(), 20005u);
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].frame, static_cast<int>(i));
  }
}

TEST(Fsck, BackwardsLookAtFramesAreCaughtWhereRecoveryRefuses) {
  // Every frame is CRC-valid and every payload decodes, but the fourth
  // look-at record goes back in time: Open refuses this journal, so
  // fsck must too, at that record.
  const std::string dir = FreshDir("fsck_backwards");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  auto writer = JournalWriter::Open(fs, dir, 0, JournalOptions{});
  ASSERT_TRUE(writer.ok());
  const int frames[] = {0, 1, 2, 1};
  uint64_t bad_offset = 0;
  for (int i = 0; i < 4; ++i) {
    if (i == 3) bad_offset = writer.value()->segment_bytes();
    std::string payload;
    BinWriter w(&payload);
    w.U8(1);  // look-at record
    w.U64(static_cast<uint64_t>(i) + 1);
    EncodeLookAt(La(frames[i], 3), &payload);
    ASSERT_TRUE(writer.value()->AppendBatch({payload}).ok());
  }
  ASSERT_TRUE(writer.value()->Close().ok());
  EXPECT_EQ(DurableEventStore::Open(dir).status().code(),
            StatusCode::kFailedPrecondition);

  auto verify = RunFsck(fs, dir);
  ASSERT_TRUE(verify.ok());
  EXPECT_FALSE(verify.value().clean());
  EXPECT_EQ(verify.value().journal_records, 3u);
  EXPECT_TRUE(AnyProblemContains(verify.value(), "frame order"))
      << verify.value().ToString();
  EXPECT_TRUE(AnyProblemContains(verify.value(),
                                 "at byte " + std::to_string(bad_offset)))
      << verify.value().ToString();

  FsckOptions repair;
  repair.repair = true;
  auto repaired = RunFsck(fs, dir, repair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired.value().verified) << repaired.value().ToString();
  EXPECT_EQ(fs->FileSize(JoinPath(dir, JournalSegmentName(0))).value(),
            bad_offset);
  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->repository().lookat_records().size(), 3u);
  EXPECT_TRUE(RunFsck(fs, dir).value().clean());
}

TEST(Fsck, JournalWithoutItsSnapshotIsReportedAndReanchored) {
  // A deleted snapshot leaves a journal starting past sequence 1, which
  // Open refuses as a gap. fsck reports it and repair anchors the
  // surviving records, as it does for a corrupt snapshot.
  const std::string dir = FreshDir("fsck_no_anchor");
  FileSystem* fs = FileSystem::Default();
  {
    auto store = DurableEventStore::Open(dir);
    ASSERT_TRUE(store.ok());
    for (int f = 0; f < 3; ++f) {
      ASSERT_TRUE(store.value()->AddLookAt(La(f, 3)).ok());
    }
    ASSERT_TRUE(store.value()->Checkpoint().ok());
    for (int f = 3; f < 5; ++f) {
      ASSERT_TRUE(store.value()->AddLookAt(La(f, 3)).ok());
    }
    ASSERT_TRUE(store.value()->Close().ok());
  }
  ASSERT_TRUE(fs->Remove(JoinPath(dir, "snapshot.dmr")).ok());
  EXPECT_EQ(DurableEventStore::Open(dir).status().code(),
            StatusCode::kCorruption);

  auto verify = RunFsck(fs, dir);
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(AnyProblemContains(verify.value(), "no snapshot anchors"))
      << verify.value().ToString();

  FsckOptions repair;
  repair.repair = true;
  auto repaired = RunFsck(fs, dir, repair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired.value().verified) << repaired.value().ToString();
  auto store = DurableEventStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->repository().lookat_records().size(), 2u);
  EXPECT_TRUE(RunFsck(fs, dir).value().clean());
}

}  // namespace
}  // namespace dievent
