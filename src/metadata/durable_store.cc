#include "metadata/durable_store.h"

#include <utility>

#include "common/strings.h"
#include "metadata/record_codec.h"

namespace dievent {

const char kSnapshotFileName[] = "snapshot.dmr";

namespace {

// Journal payload framing: [u8 record type][u64 sequence][record body].
// A kRecBatch body is a run of [u8 frame-record type][record] entries
// (look-at / emotion / overall only) sharing the frame's sequence
// number, so a whole batch chunk commits or vanishes with its CRC.
enum : uint8_t {
  kRecLookAt = 1,
  kRecEmotion = 2,
  kRecOverall = 3,
  kRecContext = 4,
  kRecFps = 5,
  kRecShots = 6,
  kRecBatch = 7,
};

// A batch larger than this is split into multiple kRecBatch frames —
// each individually atomic — still written and synced as one call.
constexpr size_t kBatchChunkBytes = 1u << 20;

/// Decodes and applies one typed record body into `repo`.
Status ApplyOneRecord(uint8_t type, BinReader* r, MetadataRepository* repo) {
  switch (type) {
    case kRecLookAt: {
      LookAtRecord rec;
      DIEVENT_RETURN_NOT_OK(DecodeLookAt(r, &rec));
      DIEVENT_RETURN_NOT_OK(repo->AddLookAt(std::move(rec)));
      break;
    }
    case kRecEmotion: {
      EmotionRecord rec;
      DIEVENT_RETURN_NOT_OK(DecodeEmotion(r, &rec));
      DIEVENT_RETURN_NOT_OK(repo->AddEmotion(rec));
      break;
    }
    case kRecOverall: {
      OverallEmotionRecord rec;
      DIEVENT_RETURN_NOT_OK(DecodeOverallEmotion(r, &rec));
      DIEVENT_RETURN_NOT_OK(repo->AddOverallEmotion(rec));
      break;
    }
    case kRecContext: {
      EventContext ctx;
      DIEVENT_RETURN_NOT_OK(DecodeContext(r, &ctx));
      repo->SetContext(std::move(ctx));
      break;
    }
    case kRecFps:
      repo->set_fps(r->F64());
      break;
    case kRecShots: {
      const double fps = r->F64();
      std::vector<StoredShot> shots;
      int num_scenes = 0;
      DIEVENT_RETURN_NOT_OK(DecodeShots(r, &shots, &num_scenes));
      repo->set_fps(fps);
      repo->SetStoredShots(std::move(shots), num_scenes);
      break;
    }
    default:
      return Status::Corruption(
          StrFormat("unknown journal record type %u", type));
  }
  return Status::OK();
}

}  // namespace

Status ApplyJournalPayload(std::string_view payload,
                           uint64_t snapshot_sequence,
                           uint64_t* expected_seq, MetadataRepository* repo,
                           uint64_t* applied, uint64_t* deduped) {
  BinReader r(payload);
  const uint8_t type = r.U8();
  const uint64_t seq = r.U64();
  if (!r.ok()) return Status::Corruption("truncated journal payload");

  if (seq <= snapshot_sequence) {
    // A stale segment surviving a crash mid checkpoint: the snapshot
    // already folded this record in. Skipping it is what makes replay
    // duplicate-free.
    if (deduped != nullptr) ++*deduped;
    return Status::OK();
  }
  if (*expected_seq != 0 && seq != *expected_seq) {
    return Status::Corruption(
        StrFormat("journal sequence gap: expected %llu, found %llu",
                  static_cast<unsigned long long>(*expected_seq),
                  static_cast<unsigned long long>(seq)));
  }

  if (type == kRecBatch) {
    while (r.ok() && !r.AtEnd()) {
      const uint8_t entry = r.U8();
      if (entry != kRecLookAt && entry != kRecEmotion &&
          entry != kRecOverall) {
        return Status::Corruption(
            StrFormat("unexpected record type %u in batch frame", entry));
      }
      DIEVENT_RETURN_NOT_OK(ApplyOneRecord(entry, &r, repo));
    }
  } else {
    DIEVENT_RETURN_NOT_OK(ApplyOneRecord(type, &r, repo));
  }
  if (!r.ok() || !r.AtEnd()) {
    return Status::Corruption("journal payload size mismatch");
  }

  *expected_seq = seq + 1;
  if (applied != nullptr) ++*applied;
  return Status::OK();
}

FileSystem* DurableEventStore::fs() const {
  return options_.fs != nullptr ? options_.fs : FileSystem::Default();
}

Result<std::unique_ptr<DurableEventStore>> DurableEventStore::Open(
    const std::string& dir, const DurableStoreOptions& options) {
  std::unique_ptr<DurableEventStore> store(
      new DurableEventStore(dir, options));
  DIEVENT_RETURN_NOT_OK(store->Recover());
  return store;
}

DurableEventStore::~DurableEventStore() {
  if (journal_ != nullptr && !closed_) (void)journal_->Close();
}

Status DurableEventStore::Recover() {
  FileSystem* f = fs();
  DIEVENT_RETURN_NOT_OK(f->CreateDir(dir_));

  // A stray temp file is a checkpoint that died before its rename —
  // by construction it carries nothing the journal doesn't.
  const std::string stray =
      JoinPath(dir_, std::string(kSnapshotFileName) + ".tmp");
  if (f->Exists(stray)) DIEVENT_RETURN_NOT_OK(f->Remove(stray));

  const std::string snapshot_path = JoinPath(dir_, kSnapshotFileName);
  if (f->Exists(snapshot_path)) {
    MetadataRepository::SnapshotInfo info;
    auto loaded = MetadataRepository::Load(f, snapshot_path, &info);
    if (!loaded.ok()) {
      return loaded.status().WithContext("recovering snapshot");
    }
    repo_ = std::move(loaded).value();
    recovery_.snapshot_loaded = true;
    recovery_.snapshot_version = info.version;
    recovery_.snapshot_sequence = info.last_sequence;
    last_sequence_ = info.last_sequence;
  }

  uint64_t expected_seq = recovery_.snapshot_sequence + 1;
  JournalReplayInfo replay;
  DIEVENT_RETURN_NOT_OK(ReplayJournal(
      f, dir_,
      [this, &expected_seq](std::string_view payload) {
        return ApplyReplay(payload, &expected_seq);
      },
      &replay));
  recovery_.segments_seen = replay.segments;
  recovery_.tail_truncated = replay.tail_truncated;
  recovery_.bytes_discarded = replay.bytes_discarded;

  // Make the on-disk bytes match what replay accepted, so the next
  // append never lands after garbage.
  DIEVENT_RETURN_NOT_OK(TruncateTornTail(f, dir_, replay));

  DIEVENT_ASSIGN_OR_RETURN(
      journal_, JournalWriter::Open(f, dir_, replay.next_segment_index,
                                    options_.journal));
  return Status::OK();
}

Status DurableEventStore::ApplyReplay(std::string_view payload,
                                      uint64_t* expected_seq) {
  const uint64_t before = *expected_seq;
  DIEVENT_RETURN_NOT_OK(ApplyJournalPayload(
      payload, recovery_.snapshot_sequence, expected_seq, &repo_,
      &recovery_.records_replayed, &recovery_.records_deduped));
  if (*expected_seq != before) last_sequence_ = *expected_seq - 1;
  return Status::OK();
}

Status DurableEventStore::Writable() const {
  if (!broken_.ok()) return broken_;
  if (closed_) return Status::FailedPrecondition("store is closed");
  return Status::OK();
}

Status DurableEventStore::AppendRecord(uint8_t type,
                                       const std::string& body) {
  std::string payload;
  BinWriter w(&payload);
  w.U8(type);
  w.U64(last_sequence_ + 1);
  payload.append(body);
  return AppendPayloads({payload});
}

Status DurableEventStore::AppendPayloads(
    const std::vector<std::string_view>& payloads) {
  Status s = journal_->AppendBatch(payloads);
  if (!s.ok()) {
    // The records may or may not have reached disk; they were never
    // acknowledged, and recovery's CRC framing will discard any torn
    // prefix. Wedge the store so the caller cannot keep writing into
    // an undefined disk state.
    broken_ = s;
    return s;
  }
  last_sequence_ += payloads.size();
  records_appended_ += payloads.size();
  return Status::OK();
}

Status DurableEventStore::AddLookAt(const LookAtRecord& record) {
  DIEVENT_RETURN_NOT_OK(Writable());
  DIEVENT_RETURN_NOT_OK(repo_.AddLookAt(record));
  std::string body;
  EncodeLookAt(record, &body);
  return AppendRecord(kRecLookAt, body);
}

Status DurableEventStore::AddEmotion(const EmotionRecord& record) {
  DIEVENT_RETURN_NOT_OK(Writable());
  DIEVENT_RETURN_NOT_OK(repo_.AddEmotion(record));
  std::string body;
  EncodeEmotion(record, &body);
  return AppendRecord(kRecEmotion, body);
}

Status DurableEventStore::AddOverallEmotion(
    const OverallEmotionRecord& record) {
  DIEVENT_RETURN_NOT_OK(Writable());
  DIEVENT_RETURN_NOT_OK(repo_.AddOverallEmotion(record));
  std::string body;
  EncodeOverallEmotion(record, &body);
  return AppendRecord(kRecOverall, body);
}

Status DurableEventStore::SetContext(const EventContext& context) {
  DIEVENT_RETURN_NOT_OK(Writable());
  repo_.SetContext(context);
  std::string body;
  EncodeContext(context, &body);
  return AppendRecord(kRecContext, body);
}

Status DurableEventStore::SetFps(double fps) {
  DIEVENT_RETURN_NOT_OK(Writable());
  repo_.set_fps(fps);
  std::string body;
  BinWriter(&body).F64(fps);
  return AppendRecord(kRecFps, body);
}

Status DurableEventStore::SetVideoStructure(
    const VideoStructure& structure) {
  DIEVENT_RETURN_NOT_OK(Writable());
  repo_.SetVideoStructure(structure);
  // Journal the derived form (shot table + scene count + resulting
  // fps) so replay does not depend on VideoStructure's own layout.
  std::string body;
  BinWriter(&body).F64(repo_.fps());
  EncodeShots(repo_.shots(), repo_.NumScenes(), &body);
  return AppendRecord(kRecShots, body);
}

Status DurableEventStore::ValidateBatch(const RecordBatch& batch) const {
  // Mirrors the MetadataRepository::Add* checks so the later in-memory
  // apply cannot fail halfway through the batch.
  int last = repo_.lookat_records().empty()
                 ? -0x7fffffff
                 : repo_.lookat_records().back().frame;
  for (const LookAtRecord& r : batch.lookat) {
    if (r.n <= 0 ||
        r.cells.size() != static_cast<size_t>(r.n) * r.n) {
      return Status::InvalidArgument("malformed look-at record in batch");
    }
    if (r.frame < last) {
      return Status::FailedPrecondition(
          "batch look-at records out of frame order");
    }
    last = r.frame;
  }
  last = repo_.emotion_records().empty()
             ? -0x7fffffff
             : repo_.emotion_records().back().frame;
  for (const EmotionRecord& r : batch.emotions) {
    if (r.frame < last) {
      return Status::FailedPrecondition(
          "batch emotion records out of frame order");
    }
    last = r.frame;
  }
  last = repo_.overall_records().empty()
             ? -0x7fffffff
             : repo_.overall_records().back().frame;
  for (const OverallEmotionRecord& r : batch.overall) {
    if (r.frame < last) {
      return Status::FailedPrecondition(
          "batch overall-emotion records out of frame order");
    }
    last = r.frame;
  }
  return Status::OK();
}

Status DurableEventStore::AppendBatch(const RecordBatch& batch) {
  DIEVENT_RETURN_NOT_OK(Writable());
  if (batch.Empty()) return Status::OK();
  DIEVENT_RETURN_NOT_OK(ValidateBatch(batch));

  // Pack [type][record] entries into chunk bodies; each chunk becomes
  // one CRC-framed kRecBatch journal record.
  std::vector<std::string> chunks;
  std::string body;
  std::string rec;
  auto add = [&chunks, &body, &rec](uint8_t type) {
    if (!body.empty() && body.size() + rec.size() + 1 > kBatchChunkBytes) {
      chunks.push_back(std::move(body));
      body.clear();
    }
    BinWriter(&body).U8(type);
    body.append(rec);
    rec.clear();
  };
  for (const LookAtRecord& r : batch.lookat) {
    EncodeLookAt(r, &rec);
    add(kRecLookAt);
  }
  for (const EmotionRecord& r : batch.emotions) {
    EncodeEmotion(r, &rec);
    add(kRecEmotion);
  }
  for (const OverallEmotionRecord& r : batch.overall) {
    EncodeOverallEmotion(r, &rec);
    add(kRecOverall);
  }
  if (!body.empty()) chunks.push_back(std::move(body));

  // In-memory apply; ValidateBatch made these infallible.
  for (const LookAtRecord& r : batch.lookat) {
    DIEVENT_RETURN_NOT_OK(repo_.AddLookAt(r));
  }
  for (const EmotionRecord& r : batch.emotions) {
    DIEVENT_RETURN_NOT_OK(repo_.AddEmotion(r));
  }
  for (const OverallEmotionRecord& r : batch.overall) {
    DIEVENT_RETURN_NOT_OK(repo_.AddOverallEmotion(r));
  }

  std::vector<std::string> payloads;
  payloads.reserve(chunks.size());
  for (std::string& chunk : chunks) {
    std::string payload;
    BinWriter w(&payload);
    w.U8(kRecBatch);
    w.U64(last_sequence_ + 1 + payloads.size());
    payload.append(chunk);
    payloads.push_back(std::move(payload));
  }
  return AppendPayloads(
      std::vector<std::string_view>(payloads.begin(), payloads.end()));
}

Result<MetadataRepository> DurableEventStore::LoadState(
    FileSystem* fs, const std::string& dir) {
  if (fs == nullptr) fs = FileSystem::Default();
  MetadataRepository repo;
  uint64_t snapshot_sequence = 0;
  const std::string snapshot_path = JoinPath(dir, kSnapshotFileName);
  if (fs->Exists(snapshot_path)) {
    MetadataRepository::SnapshotInfo info;
    auto loaded = MetadataRepository::Load(fs, snapshot_path, &info);
    if (!loaded.ok()) {
      return loaded.status().WithContext("loading snapshot");
    }
    repo = std::move(loaded).value();
    snapshot_sequence = info.last_sequence;
  }
  uint64_t expected_seq = snapshot_sequence + 1;
  JournalReplayInfo replay;
  DIEVENT_RETURN_NOT_OK(ReplayJournal(
      fs, dir,
      [&](std::string_view payload) {
        return ApplyJournalPayload(payload, snapshot_sequence,
                                   &expected_seq, &repo, nullptr, nullptr);
      },
      &replay));
  return repo;
}

Status DurableEventStore::Checkpoint() {
  DIEVENT_RETURN_NOT_OK(Writable());

  // Everything acknowledged must be on disk before the snapshot claims
  // to cover it.
  Status s = journal_->Sync();
  if (!s.ok()) {
    broken_ = s.WithContext("checkpoint");
    return broken_;
  }
  return CommitSnapshot(repo_);
}

Status DurableEventStore::RewindToFrame(int frame) {
  DIEVENT_RETURN_NOT_OK(Writable());

  MetadataRepository trimmed;
  trimmed.SetContext(repo_.context());
  trimmed.set_fps(repo_.fps());
  trimmed.SetStoredShots(repo_.shots(), repo_.NumScenes());
  Status s = Status::OK();
  for (const LookAtRecord& r : repo_.lookat_records()) {
    if (r.frame <= frame && s.ok()) s = trimmed.AddLookAt(r);
  }
  for (const EmotionRecord& r : repo_.emotion_records()) {
    if (r.frame <= frame && s.ok()) s = trimmed.AddEmotion(r);
  }
  for (const OverallEmotionRecord& r : repo_.overall_records()) {
    if (r.frame <= frame && s.ok()) s = trimmed.AddOverallEmotion(r);
  }
  if (!s.ok()) return s.WithContext("rewind");

  // The discarded tail needs no durability; the snapshot of the trimmed
  // state — anchored at the CURRENT sequence, so every stale journal
  // record (kept or dropped) dedups on replay — is the durable commit
  // of the rewind.
  DIEVENT_RETURN_NOT_OK(CommitSnapshot(trimmed));
  repo_ = std::move(trimmed);
  return Status::OK();
}

Status DurableEventStore::CommitSnapshot(const MetadataRepository& state) {
  FileSystem* f = fs();

  // Atomic snapshot carrying the folded sequence number.
  Status s =
      state.Save(f, JoinPath(dir_, kSnapshotFileName), last_sequence_);

  // Reset the journal: retire every existing segment and start a
  // fresh one. A crash anywhere here is safe — stale segments dedup
  // against the snapshot sequence on replay.
  uint32_t next_index = 0;
  if (s.ok()) {
    retired_journal_bytes_ += journal_->bytes_appended();
    retired_segments_ += journal_->segments_created();
    next_index = journal_->segment_index() + 1;
    s = journal_->Close();
    journal_.reset();
  }
  if (s.ok()) {
    auto names = f->ListDir(dir_);
    if (!names.ok()) {
      s = names.status();
    } else {
      for (const std::string& name : names.value()) {
        long long index = ParseJournalSegmentName(name);
        if (index >= 0 && index < next_index) {
          s = f->Remove(JoinPath(dir_, name));
          if (!s.ok()) break;
        }
      }
    }
  }
  if (s.ok()) {
    auto writer =
        JournalWriter::Open(f, dir_, next_index, options_.journal);
    if (writer.ok()) {
      journal_ = std::move(writer).value();
    } else {
      s = writer.status();
    }
  }

  if (!s.ok()) {
    broken_ = s.WithContext("checkpoint");
    return broken_;
  }
  ++checkpoints_;
  return Status::OK();
}

Status DurableEventStore::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  if (journal_ == nullptr) return Status::OK();
  Status s = journal_->Close();
  journal_.reset();
  return s;
}

DurableStoreStats DurableEventStore::stats() const {
  DurableStoreStats stats;
  stats.records_appended = records_appended_;
  stats.bytes_appended = retired_journal_bytes_;
  stats.segments_created = retired_segments_;
  if (journal_ != nullptr) {
    stats.bytes_appended += journal_->bytes_appended();
    stats.segments_created += journal_->segments_created();
  }
  stats.checkpoints = checkpoints_;
  return stats;
}

}  // namespace dievent
