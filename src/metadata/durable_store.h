/// \file durable_store.h
/// Crash-safe persistence for the metadata repository.
///
/// A DurableEventStore owns one event's on-disk state in a directory:
///
///   snapshot.dmr        checksummed v2 snapshot (atomic replace)
///   journal-NNNNNN.wal  write-ahead journal segments since the snapshot
///
/// Every mutation (AddLookAt / AddEmotion / AddOverallEmotion /
/// SetContext / SetFps / SetVideoStructure) is applied to the in-memory
/// repository, then appended to the journal as a sequence-numbered
/// record; the call returns OK only after the configured fsync policy
/// ran, so an acknowledged record survives process death.
///
/// Checkpoint() folds the journal into a fresh snapshot (write-temp /
/// fsync / rename / fsync-dir) that carries the last folded sequence
/// number, then resets the journal. Replay on Open skips records whose
/// sequence is <= the snapshot's — so a crash anywhere in the
/// checkpoint protocol yields zero lost acknowledged records and zero
/// duplicates:
///
///   crash before rename      -> temp ignored, journal replays fully
///   crash after rename,      -> stale segments replay but every record
///     before journal reset      dedups against the snapshot sequence
///   crash mid journal reset  -> same
///
/// A torn journal tail (the expected artifact of dying mid-append) is
/// salvaged: the valid prefix replays, the damage is reported in
/// RecoveryInfo, and the tail is physically truncated so the next
/// writer never appends after garbage. Mid-stream corruption fails
/// Open with a descriptive Status; `dievent_fsck` repairs.

#ifndef DIEVENT_METADATA_DURABLE_STORE_H_
#define DIEVENT_METADATA_DURABLE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "io/journal.h"
#include "metadata/repository.h"

namespace dievent {

/// A multi-record ingest unit (the corpus batched-ingest fast path).
/// Records are applied lookat -> emotions -> overall, each vector in
/// frame order. The whole batch is journaled with ONE buffered write
/// and at most one fsync; on-disk it becomes one or more kRecBatch
/// frames, each individually CRC-atomic, so replay after a crash never
/// yields a torn record — and under a power cut (nothing synced since
/// the previous acknowledged call) the recovered state is exactly the
/// acknowledged batches.
struct RecordBatch {
  std::vector<LookAtRecord> lookat;
  std::vector<EmotionRecord> emotions;
  std::vector<OverallEmotionRecord> overall;

  bool Empty() const {
    return lookat.empty() && emotions.empty() && overall.empty();
  }
  size_t TotalRecords() const {
    return lookat.size() + emotions.size() + overall.size();
  }
};

struct DurableStoreOptions {
  /// Journal durability/rotation knobs (fsync policy, segment size).
  JournalOptions journal;
  /// Filesystem to operate on; null = FileSystem::Default(). Tests
  /// inject a FaultyFileSystem here.
  FileSystem* fs = nullptr;
};

/// What recovery found when the store was opened.
struct RecoveryInfo {
  bool snapshot_loaded = false;
  uint32_t snapshot_version = 0;
  uint64_t snapshot_sequence = 0;  ///< sequences folded into the snapshot
  uint64_t records_replayed = 0;   ///< journal records applied
  uint64_t records_deduped = 0;    ///< stale pre-snapshot records skipped
  uint64_t segments_seen = 0;
  bool tail_truncated = false;     ///< a torn tail was salvaged
  uint64_t bytes_discarded = 0;    ///< torn-tail bytes dropped
};

/// Lifetime write-side tallies.
struct DurableStoreStats {
  /// Journal frames acknowledged: a single mutation counts once, and so
  /// does each kRecBatch chunk of an AppendBatch, however many records
  /// it carries.
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;    ///< framed journal bytes written
  uint32_t checkpoints = 0;
  uint32_t segments_created = 0;
};

class DurableEventStore {
 public:
  /// Opens (creating if needed) the store in `dir`, recovering state
  /// from the snapshot plus journal replay.
  static Result<std::unique_ptr<DurableEventStore>> Open(
      const std::string& dir, const DurableStoreOptions& options = {});

  ~DurableEventStore();

  DurableEventStore(const DurableEventStore&) = delete;
  DurableEventStore& operator=(const DurableEventStore&) = delete;

  // --- journaled mutations (OK => durable per fsync policy) -----------
  Status AddLookAt(const LookAtRecord& record);
  Status AddEmotion(const EmotionRecord& record);
  Status AddOverallEmotion(const OverallEmotionRecord& record);
  Status SetContext(const EventContext& context);
  Status SetFps(double fps);
  Status SetVideoStructure(const VideoStructure& structure);

  /// Applies and journals every record of `batch` with one buffered
  /// journal write and at most one fsync, amortizing framing and sync
  /// cost over the whole batch. The batch is validated up front — on
  /// InvalidArgument / FailedPrecondition neither memory nor disk has
  /// changed. On OK the entire batch is durable per fsync policy.
  Status AppendBatch(const RecordBatch& batch);

  /// Atomically folds all journaled state into a new snapshot and
  /// resets the journal. Safe to crash at any byte of this protocol.
  Status Checkpoint();

  /// Durably discards every frame record with `record.frame > frame`
  /// (look-at, emotion, overall emotion; context/fps/shots are kept)
  /// by snapshotting the trimmed state and resetting the journal.
  /// Used by pipeline resume to drop the partial tail a crash left
  /// between one frame's first and last journaled record, so the frame
  /// is reprocessed whole instead of resumed half-written. Crash-safe
  /// like Checkpoint. `frame` may be -1 to drop all frame records.
  Status RewindToFrame(int frame);

  /// Syncs and closes the journal. Mutations after Close fail.
  Status Close();

  /// Read-only recovery: the state a fresh Open would recover from
  /// `dir` (snapshot + journal replay with sequence dedup), without
  /// truncating torn tails or opening a journal writer. This is what
  /// corpus readers use to inspect a store another process may still
  /// own. Null `fs` means FileSystem::Default().
  static Result<MetadataRepository> LoadState(FileSystem* fs,
                                              const std::string& dir);

  /// The recovered + live in-memory state.
  const MetadataRepository& repository() const { return repo_; }

  const RecoveryInfo& recovery() const { return recovery_; }
  DurableStoreStats stats() const;
  const std::string& dir() const { return dir_; }

  /// Once a journal append or checkpoint fails, the store is wedged:
  /// every later mutation returns the original error. The in-memory
  /// repository may then be ahead of disk by exactly the unacknowledged
  /// records.
  const Status& broken() const { return broken_; }

 private:
  DurableEventStore(std::string dir, DurableStoreOptions options)
      : dir_(std::move(dir)), options_(options) {}

  FileSystem* fs() const;
  Status Recover();
  /// The precheck every mutation runs before touching `repo_`: the
  /// original error once wedged, FailedPrecondition once closed.
  Status Writable() const;
  /// Journals one record; the caller has already passed Writable().
  Status AppendRecord(uint8_t type, const std::string& body);
  /// The shared append tail: journals `payloads` (sequences
  /// last_sequence_+1...), wedges the store on failure, advances the
  /// sequence on success.
  Status AppendPayloads(const std::vector<std::string_view>& payloads);
  Status ApplyReplay(std::string_view payload, uint64_t* expected_seq);
  Status ValidateBatch(const RecordBatch& batch) const;
  /// Snapshot `state` at the current sequence and reset the journal
  /// (steps 2-3 of the checkpoint protocol). Wedges the store on error.
  Status CommitSnapshot(const MetadataRepository& state);

  std::string dir_;
  DurableStoreOptions options_;
  MetadataRepository repo_;
  std::unique_ptr<JournalWriter> journal_;
  uint64_t last_sequence_ = 0;
  RecoveryInfo recovery_;
  uint32_t checkpoints_ = 0;
  uint64_t records_appended_ = 0;
  // Journal bytes/segments surviving across journal resets.
  uint64_t retired_journal_bytes_ = 0;
  uint32_t retired_segments_ = 0;
  Status broken_ = Status::OK();
  bool closed_ = false;
};

/// Snapshot file name within a store directory.
extern const char kSnapshotFileName[];

/// The journal replay core, and the only decoder of journal payloads:
/// store recovery, read-only LoadState and fsck all replay through it.
/// Decodes `payload` (a single record or a kRecBatch chunk) and applies
/// it to `repo`. A record with sequence <= `snapshot_sequence` is
/// already folded into the snapshot and is skipped (counted in
/// `deduped`); any other must carry `*expected_seq` exactly, else it is
/// a sequence gap. `*expected_seq == 0` adopts the first record's
/// sequence instead — fsck's view of a journal whose snapshot is lost.
/// On OK `*expected_seq` is one past the applied record. `applied` and
/// `deduped` are optional tallies.
Status ApplyJournalPayload(std::string_view payload,
                           uint64_t snapshot_sequence,
                           uint64_t* expected_seq, MetadataRepository* repo,
                           uint64_t* applied, uint64_t* deduped);

}  // namespace dievent

#endif  // DIEVENT_METADATA_DURABLE_STORE_H_
