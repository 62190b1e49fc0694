/// \file journal.h
/// Write-ahead journal: an append-only sequence of CRC32-framed,
/// length-prefixed byte records across rotating segment files.
///
/// On-disk layout of a segment (`journal-NNNNNN.wal`):
///
///   header  : [u32 magic 'DJL1'][u32 version][u32 segment index]
///             [u32 masked crc of the first 12 bytes]
///   record  : [u32 payload length][u32 masked crc of payload][payload]
///   ...
///
/// CRCs are masked (io/crc32.h) so payloads that themselves embed CRCs
/// cannot alias the framing. A record is acknowledged durable only
/// after the configured fsync policy has run for it.
///
/// Recovery semantics: replay stops at the first invalid frame. If that
/// frame is in the LAST segment it is a torn tail — the expected
/// artifact of a crash mid-append — and the valid prefix is replayed
/// with the damage reported (and optionally physically truncated).
/// An invalid frame in an earlier segment is mid-stream corruption and
/// fails the replay with a descriptive Status; `dievent_fsck` repairs.

#ifndef DIEVENT_IO_JOURNAL_H_
#define DIEVENT_IO_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "io/file.h"

namespace dievent {

/// When appended records are fsynced — the durability/throughput knob.
enum class FsyncPolicy {
  kEveryRecord,  ///< fsync after every append; ack == durable
  kNever,        ///< leave it to the OS; crash may lose the whole tail
};

struct JournalOptions {
  FsyncPolicy fsync = FsyncPolicy::kEveryRecord;
  /// A segment is rotated once it grows past this many bytes.
  uint64_t rotate_bytes = 4ull << 20;
};

/// Name of segment `index` ("journal-000042.wal").
std::string JournalSegmentName(uint32_t index);

/// Parses a segment file name; returns the index or -1.
long long ParseJournalSegmentName(const std::string& name);

/// Appends framed records to rotating segments in one directory.
/// Single-writer; not thread-safe.
class JournalWriter {
 public:
  /// Creates a fresh segment with the given starting index.
  static Result<std::unique_ptr<JournalWriter>> Open(
      FileSystem* fs, const std::string& dir, uint32_t segment_index,
      const JournalOptions& options);

  /// Appends every payload as its own framed record with ONE buffered
  /// write and at most one fsync; a single record is a batch of one.
  /// Under kEveryRecord the whole batch is durable on OK; nothing is
  /// acknowledged until the batch returns. Frames land contiguously in
  /// one segment (rotation happens only between batches).
  Status AppendBatch(const std::vector<std::string_view>& payloads);

  /// Forces an fsync regardless of policy.
  Status Sync();

  /// Syncs (if anything is unsynced) and closes the current segment.
  Status Close();

  uint64_t records_appended() const { return records_appended_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint32_t segments_created() const { return segments_created_; }
  /// Index of the segment currently being written.
  uint32_t segment_index() const { return segment_index_; }
  /// Bytes written to the current segment (header included).
  uint64_t segment_bytes() const { return segment_bytes_; }

 private:
  JournalWriter(FileSystem* fs, std::string dir, JournalOptions options)
      : fs_(fs), dir_(std::move(dir)), options_(options) {}

  Status OpenSegment(uint32_t index);

  FileSystem* fs_;
  std::string dir_;
  JournalOptions options_;
  std::unique_ptr<WritableFile> file_;
  uint32_t segment_index_ = 0;
  uint64_t segment_bytes_ = 0;
  uint64_t records_appended_ = 0;
  uint64_t bytes_appended_ = 0;
  uint32_t segments_created_ = 0;
  bool unsynced_ = false;  ///< bytes appended since the last fsync
};

/// What a replay saw. `tail_truncated`/`bytes_discarded` describe a
/// salvaged torn tail; they are informational, not an error.
struct JournalReplayInfo {
  uint64_t records = 0;          ///< valid records replayed
  uint64_t segments = 0;         ///< segment files visited
  bool tail_truncated = false;   ///< last segment ended in a torn frame
  uint64_t bytes_discarded = 0;  ///< torn-tail bytes dropped
  std::string truncated_segment;  ///< file holding the torn tail
  uint64_t truncate_offset = 0;  ///< valid length of that file
  uint32_t next_segment_index = 0;  ///< where a new writer should start
};

/// Replays every valid record in `dir` in segment order, invoking
/// `apply` per payload. A non-OK Status from `apply` aborts the replay
/// and is returned as-is. Mid-stream corruption returns Corruption; a
/// torn tail in the last segment is salvaged and reported via `info`.
Status ReplayJournal(FileSystem* fs, const std::string& dir,
                     const std::function<Status(std::string_view)>& apply,
                     JournalReplayInfo* info);

/// Physically truncates a salvaged torn tail, making the on-disk bytes
/// match what replay accepted. No-op when nothing was truncated.
Status TruncateTornTail(FileSystem* fs, const std::string& dir,
                        const JournalReplayInfo& info);

/// Low-level single-segment scan, used by fsck to locate damage
/// precisely. `apply` may reject a structurally valid record (bad
/// payload, sequence gap); the scan stops there with
/// `payload_rejected` set instead of propagating the error.
struct JournalSegmentScan {
  uint64_t valid_records = 0;
  /// Offset one past the last accepted record — the segment's valid
  /// prefix length (header included).
  uint64_t valid_bytes = 0;
  bool damaged = false;           ///< framing damage (header/CRC/torn)
  bool payload_rejected = false;  ///< apply() refused a framed record
  std::string damage;             ///< description of what stopped the scan
};

Result<JournalSegmentScan> ScanJournalSegment(
    FileSystem* fs, const std::string& path, uint32_t expect_index,
    const std::function<Status(std::string_view)>& apply);

}  // namespace dievent

#endif  // DIEVENT_IO_JOURNAL_H_
