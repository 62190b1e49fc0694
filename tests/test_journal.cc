// Write-ahead journal: framing, rotation, fsync policies, torn-tail
// salvage, and mid-stream corruption semantics (io/journal.h).

#include "io/journal.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "io/faulty_file.h"

namespace dievent {
namespace {

/// A fresh, empty scratch directory under the gtest temp root.
std::string FreshDir(const std::string& name) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = testing::TempDir() + "/" + name;
  if (fs->Exists(dir)) {
    auto names = fs->ListDir(dir);
    EXPECT_TRUE(names.ok()) << names.status().ToString();
    for (const std::string& n : names.value()) {
      EXPECT_TRUE(fs->Remove(JoinPath(dir, n)).ok());
    }
  } else {
    EXPECT_TRUE(fs->CreateDir(dir).ok());
  }
  return dir;
}

/// Replays `dir`, collecting payloads; asserts the replay status is OK.
std::vector<std::string> Replay(FileSystem* fs, const std::string& dir,
                                JournalReplayInfo* info) {
  std::vector<std::string> payloads;
  Status s = ReplayJournal(
      fs, dir,
      [&](std::string_view p) {
        payloads.emplace_back(p);
        return Status::OK();
      },
      info);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return payloads;
}

TEST(JournalSegmentName, RoundTripsAndRejectsJunk) {
  EXPECT_EQ(JournalSegmentName(42), "journal-000042.wal");
  EXPECT_EQ(ParseJournalSegmentName("journal-000042.wal"), 42);
  EXPECT_EQ(ParseJournalSegmentName("journal-1234567.wal"), 1234567);
  EXPECT_EQ(ParseJournalSegmentName("snapshot.dmr"), -1);
  EXPECT_EQ(ParseJournalSegmentName("journal-.wal"), -1);
  EXPECT_EQ(ParseJournalSegmentName("journal-12x4.wal"), -1);
  EXPECT_EQ(ParseJournalSegmentName("journal-000001.wal.corrupt"), -1);
}

TEST(Journal, RoundTripsInOrderAcrossRotation) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = FreshDir("journal_rotate");
  JournalOptions options;
  options.rotate_bytes = 64;  // force rotation every few records
  auto writer = JournalWriter::Open(fs, dir, 0, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  std::vector<std::string> want;
  for (int i = 0; i < 20; ++i) {
    want.push_back(StrFormat("record-%02d-%s", i,
                             std::string(i % 7, 'x').c_str()));
    ASSERT_TRUE(writer.value()->AppendBatch({want.back()}).ok());
  }
  EXPECT_EQ(writer.value()->records_appended(), 20u);
  EXPECT_GT(writer.value()->segments_created(), 1u);
  const uint32_t last_index = writer.value()->segment_index();
  ASSERT_TRUE(writer.value()->Close().ok());

  JournalReplayInfo info;
  EXPECT_EQ(Replay(fs, dir, &info), want);
  EXPECT_EQ(info.records, 20u);
  EXPECT_EQ(info.segments, writer.value()->segments_created());
  EXPECT_FALSE(info.tail_truncated);
  EXPECT_EQ(info.next_segment_index, last_index + 1);
}

TEST(Journal, ReplayOfMissingDirectoryIsEmptyNotAnError) {
  JournalReplayInfo info;
  Status s = ReplayJournal(FileSystem::Default(),
                           testing::TempDir() + "/journal_never_created",
                           [](std::string_view) { return Status::OK(); },
                           &info);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(info.records, 0u);
  EXPECT_EQ(info.segments, 0u);
}

TEST(Journal, TornTailIsSalvagedAndPhysicallyTruncated) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = FreshDir("journal_torn");
  auto writer = JournalWriter::Open(fs, dir, 0, JournalOptions{});
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(writer.value()->AppendBatch({StrFormat("rec-%d", i)}).ok());
  }
  ASSERT_TRUE(writer.value()->Close().ok());

  // Simulate a crash mid-append: garbage after the last whole frame.
  const std::string seg = JoinPath(dir, JournalSegmentName(0));
  auto size = fs->FileSize(seg);
  ASSERT_TRUE(size.ok());
  {
    auto f = fs->OpenForAppend(seg);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append(std::string("\x01\x02\x03", 3)).ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }

  JournalReplayInfo info;
  EXPECT_EQ(Replay(fs, dir, &info).size(), 5u);
  EXPECT_TRUE(info.tail_truncated);
  EXPECT_EQ(info.truncated_segment, JournalSegmentName(0));
  EXPECT_EQ(info.truncate_offset, size.value());
  EXPECT_EQ(info.bytes_discarded, 3u);

  // Truncation restores the exact acknowledged prefix; a second replay
  // is clean.
  ASSERT_TRUE(TruncateTornTail(fs, dir, info).ok());
  EXPECT_EQ(fs->FileSize(seg).value(), size.value());
  JournalReplayInfo again;
  EXPECT_EQ(Replay(fs, dir, &again).size(), 5u);
  EXPECT_FALSE(again.tail_truncated);
}

TEST(Journal, TornPayloadInsideLastRecordSalvagesThePrefix) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = FreshDir("journal_torn_payload");
  auto writer = JournalWriter::Open(fs, dir, 0, JournalOptions{});
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        writer.value()->AppendBatch({"payload-" + std::to_string(i)}).ok());
  }
  ASSERT_TRUE(writer.value()->Close().ok());

  // Cut two bytes off the final record's payload.
  const std::string seg = JoinPath(dir, JournalSegmentName(0));
  auto size = fs->FileSize(seg);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(fs->Truncate(seg, size.value() - 2).ok());

  JournalReplayInfo info;
  EXPECT_EQ(Replay(fs, dir, &info).size(), 3u);
  EXPECT_TRUE(info.tail_truncated);
  EXPECT_GT(info.bytes_discarded, 0u);
}

TEST(Journal, MidStreamCorruptionIsFatalNotSalvaged) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = FreshDir("journal_midstream");
  JournalOptions options;
  options.rotate_bytes = 48;  // several segments
  auto writer = JournalWriter::Open(fs, dir, 0, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        writer.value()->AppendBatch({StrFormat("seg-rec-%02d", i)}).ok());
  }
  ASSERT_TRUE(writer.value()->segments_created() > 1u);
  ASSERT_TRUE(writer.value()->Close().ok());

  // Flip one payload byte in the FIRST segment: damage before the end
  // of the stream can hide acknowledged records, so replay must refuse.
  const std::string seg = JoinPath(dir, JournalSegmentName(0));
  auto data = fs->ReadFile(seg);
  ASSERT_TRUE(data.ok());
  std::string bytes = data.value();
  bytes[bytes.size() - 1] ^= 0x40;
  {
    auto f = fs->OpenForWrite(seg);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append(bytes).ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }

  JournalReplayInfo info;
  Status s = ReplayJournal(
      fs, dir, [](std::string_view) { return Status::OK(); }, &info);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("mid-stream"), std::string::npos)
      << s.ToString();
}

TEST(Journal, FsyncPolicyBoundsPowerCutLossExactly) {
  FileSystem* base = FileSystem::Default();
  struct Case {
    const char* name;
    FsyncPolicy fsync;
    uint64_t survivors;  // records after a power cut, out of 10
  };
  // kEveryRecord: ack == durable, nothing lost. kNever: even the
  // segment header was never synced.
  const Case cases[] = {
      {"every_record", FsyncPolicy::kEveryRecord, 10},
      {"never", FsyncPolicy::kNever, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = FreshDir(std::string("journal_cut_") + c.name);
    FaultyFileSystem fs(base, FileFaultSpec{});
    JournalOptions options;
    options.fsync = c.fsync;
    auto writer = JournalWriter::Open(&fs, dir, 0, options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer.value()->AppendBatch({StrFormat("r-%d", i)}).ok());
    }
    // Crash without Close/Sync, then lose everything unsynced.
    writer.value().reset();
    ASSERT_TRUE(fs.LoseUnsyncedData().ok());

    JournalReplayInfo info;
    EXPECT_EQ(Replay(base, dir, &info).size(), c.survivors);
  }
}

TEST(Journal, InjectedIoErrorsSurfaceAsIoError) {
  FileFaultSpec all_fail;
  all_fail.write_error_probability = 1.0;
  FaultyFileSystem fs(FileSystem::Default(), all_fail);
  auto writer = JournalWriter::Open(&fs, FreshDir("journal_eio"), 0,
                                    JournalOptions{});
  // Even opening fails: the segment header append is itself a write.
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kIoError);
  EXPECT_GT(fs.counters().injected_write_errors, 0);
}

TEST(Journal, AppendBatchIsOneBufferedWriteAndReplaysInOrder) {
  std::vector<std::string> want;
  for (int i = 0; i < 10; ++i) {
    want.push_back(StrFormat("batched-%02d-%s", i,
                             std::string(i % 5, 'y').c_str()));
  }
  std::vector<std::string_view> views(want.begin(), want.end());

  // Same payloads through both paths; count physical appends.
  const std::string batch_dir = FreshDir("journal_batch");
  FaultyFileSystem batch_fs(FileSystem::Default(), FileFaultSpec{});
  auto batch = JournalWriter::Open(&batch_fs, batch_dir, 0, JournalOptions{});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(batch.value()->AppendBatch(views).ok());
  EXPECT_EQ(batch.value()->records_appended(), want.size());
  ASSERT_TRUE(batch.value()->Close().ok());

  const std::string serial_dir = FreshDir("journal_batch_serial");
  FaultyFileSystem serial_fs(FileSystem::Default(), FileFaultSpec{});
  auto serial =
      JournalWriter::Open(&serial_fs, serial_dir, 0, JournalOptions{});
  ASSERT_TRUE(serial.ok());
  for (const std::string& p : want) {
    ASSERT_TRUE(serial.value()->AppendBatch({p}).ok());
  }
  ASSERT_TRUE(serial.value()->Close().ok());

  // Bit-compatible framing: both replay to the same payload sequence...
  JournalReplayInfo info;
  EXPECT_EQ(Replay(FileSystem::Default(), batch_dir, &info), want);
  EXPECT_EQ(Replay(FileSystem::Default(), serial_dir, &info), want);
  // ...but the batch amortized N appends into one buffered write.
  EXPECT_EQ(batch_fs.counters().appends,
            serial_fs.counters().appends -
                static_cast<long long>(want.size()) + 1);
}

TEST(Journal, AppendBatchLandsContiguouslyInOneSegment) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = FreshDir("journal_batch_rotate");
  JournalOptions options;
  options.rotate_bytes = 64;  // far smaller than the batch below
  auto writer = JournalWriter::Open(fs, dir, 0, options);
  ASSERT_TRUE(writer.ok());

  std::vector<std::string> want(12, std::string(16, 'z'));
  std::vector<std::string_view> views(want.begin(), want.end());
  ASSERT_TRUE(writer.value()->AppendBatch(views).ok());
  // Rotation only happens between batches, never inside one.
  EXPECT_EQ(writer.value()->segments_created(), 1u);
  ASSERT_TRUE(writer.value()->AppendBatch({"after"}).ok());
  EXPECT_EQ(writer.value()->segments_created(), 2u);
  ASSERT_TRUE(writer.value()->Close().ok());

  want.push_back("after");
  JournalReplayInfo info;
  EXPECT_EQ(Replay(fs, dir, &info), want);
  EXPECT_EQ(info.records, want.size());
}

TEST(Journal, AppendBatchOfNothingIsANoOp) {
  const std::string dir = FreshDir("journal_batch_empty");
  auto writer =
      JournalWriter::Open(FileSystem::Default(), dir, 0, JournalOptions{});
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(writer.value()->AppendBatch({}).ok());
  EXPECT_EQ(writer.value()->records_appended(), 0u);
  ASSERT_TRUE(writer.value()->Close().ok());
}

TEST(Journal, OversizedRecordIsRejectedUpFront) {
  const std::string dir = FreshDir("journal_oversize");
  auto writer =
      JournalWriter::Open(FileSystem::Default(), dir, 0, JournalOptions{});
  ASSERT_TRUE(writer.ok());
  const std::string huge((64u << 20) + 1, 'x');
  EXPECT_EQ(writer.value()->AppendBatch({huge}).code(),
            StatusCode::kInvalidArgument);
  // The journal remains usable: the bad record never reached the file.
  EXPECT_TRUE(writer.value()->AppendBatch({"small"}).ok());
  ASSERT_TRUE(writer.value()->Close().ok());
  JournalReplayInfo info;
  EXPECT_EQ(Replay(FileSystem::Default(), dir, &info).size(), 1u);
}

}  // namespace
}  // namespace dievent
