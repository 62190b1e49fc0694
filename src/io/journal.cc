#include "io/journal.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "io/crc32.h"

namespace dievent {

namespace {

constexpr uint32_t kJournalMagic = 0x444A4C31;  // "DJL1"
constexpr uint32_t kJournalVersion = 1;
constexpr size_t kSegmentHeaderBytes = 16;
constexpr size_t kFrameHeaderBytes = 8;
// Field-length sanity, matching the repository reader: a corrupt length
// must never trigger a huge allocation.
constexpr uint32_t kMaxRecordBytes = 64u << 20;

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

std::string JournalSegmentName(uint32_t index) {
  return StrFormat("journal-%06u.wal", index);
}

long long ParseJournalSegmentName(const std::string& name) {
  constexpr char kPrefix[] = "journal-";
  constexpr char kSuffix[] = ".wal";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (name.size() <= kPrefixLen + kSuffixLen) return -1;
  if (name.compare(0, kPrefixLen, kPrefix) != 0) return -1;
  if (name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return -1;
  }
  long long index = 0;
  for (size_t i = kPrefixLen; i < name.size() - kSuffixLen; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    index = index * 10 + (name[i] - '0');
    if (index > 0xFFFFFFFFll) return -1;
  }
  return index;
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    FileSystem* fs, const std::string& dir, uint32_t segment_index,
    const JournalOptions& options) {
  std::unique_ptr<JournalWriter> writer(
      new JournalWriter(fs, dir, options));
  DIEVENT_RETURN_NOT_OK(writer->OpenSegment(segment_index));
  return writer;
}

Status JournalWriter::OpenSegment(uint32_t index) {
  const std::string path = JoinPath(dir_, JournalSegmentName(index));
  DIEVENT_ASSIGN_OR_RETURN(file_, fs_->OpenForWrite(path));
  segment_index_ = index;
  ++segments_created_;

  std::string header;
  PutU32(&header, kJournalMagic);
  PutU32(&header, kJournalVersion);
  PutU32(&header, index);
  PutU32(&header, Crc32Mask(Crc32(header.data(), header.size())));
  DIEVENT_RETURN_NOT_OK(file_->Append(header));
  segment_bytes_ = header.size();
  unsynced_ = false;
  // Make the segment itself durable before any record relies on it.
  if (options_.fsync != FsyncPolicy::kNever) {
    DIEVENT_RETURN_NOT_OK(file_->Sync());
    DIEVENT_RETURN_NOT_OK(fs_->SyncDir(dir_));
  }
  return Status::OK();
}

Status JournalWriter::AppendBatch(
    const std::vector<std::string_view>& payloads) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal writer is closed");
  }
  if (payloads.empty()) return Status::OK();
  size_t total = 0;
  for (std::string_view p : payloads) {
    if (p.size() > kMaxRecordBytes) {
      return Status::InvalidArgument(
          StrFormat("journal record too large: %zu bytes", p.size()));
    }
    total += kFrameHeaderBytes + p.size();
  }
  if (segment_bytes_ >= options_.rotate_bytes) {
    if (options_.fsync != FsyncPolicy::kNever && unsynced_) {
      DIEVENT_RETURN_NOT_OK(Sync());
    }
    DIEVENT_RETURN_NOT_OK(file_->Close());
    DIEVENT_RETURN_NOT_OK(OpenSegment(segment_index_ + 1));
  }

  std::string buf;
  buf.reserve(total);
  for (std::string_view p : payloads) {
    PutU32(&buf, static_cast<uint32_t>(p.size()));
    PutU32(&buf, Crc32Mask(Crc32(p.data(), p.size())));
    buf.append(p.data(), p.size());
  }
  DIEVENT_RETURN_NOT_OK(file_->Append(buf));
  segment_bytes_ += buf.size();
  bytes_appended_ += buf.size();
  records_appended_ += payloads.size();
  unsynced_ = true;
  return options_.fsync == FsyncPolicy::kEveryRecord ? Sync() : Status::OK();
}

Status JournalWriter::Sync() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal writer is closed");
  }
  DIEVENT_RETURN_NOT_OK(file_->Sync());
  unsynced_ = false;
  return Status::OK();
}

Status JournalWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  if (options_.fsync != FsyncPolicy::kNever && unsynced_) {
    DIEVENT_RETURN_NOT_OK(file_->Sync());
  }
  Status s = file_->Close();
  file_.reset();
  return s;
}

namespace {

/// Outcome of scanning one segment's bytes.
struct SegmentScan {
  uint64_t valid_records = 0;
  uint64_t valid_bytes = 0;  ///< prefix length that parsed cleanly
  bool damaged = false;      ///< scan stopped before end of file
  std::string what;          ///< description of the damage
};

/// Parses segment bytes, invoking `apply` per valid record. Stops at
/// the first invalid frame; the caller decides whether that is a
/// salvageable tail or fatal corruption. A non-OK from `apply` is
/// returned immediately via `apply_status`.
SegmentScan ScanSegment(std::string_view data, uint32_t expect_index,
                        const std::function<Status(std::string_view)>& apply,
                        Status* apply_status) {
  SegmentScan scan;
  *apply_status = Status::OK();
  if (data.size() < kSegmentHeaderBytes) {
    scan.damaged = true;
    scan.what = "segment shorter than its header";
    return scan;
  }
  if (GetU32(data.data()) != kJournalMagic) {
    scan.damaged = true;
    scan.what = "bad segment magic";
    return scan;
  }
  if (GetU32(data.data() + 4) != kJournalVersion) {
    scan.damaged = true;
    scan.what = "unsupported segment version";
    return scan;
  }
  const uint32_t header_crc = Crc32(data.data(), 12);
  if (Crc32Unmask(GetU32(data.data() + 12)) != header_crc) {
    scan.damaged = true;
    scan.what = "segment header checksum mismatch";
    return scan;
  }
  if (GetU32(data.data() + 8) != expect_index) {
    scan.damaged = true;
    scan.what = "segment index does not match file name";
    return scan;
  }

  size_t offset = kSegmentHeaderBytes;
  scan.valid_bytes = offset;
  while (offset < data.size()) {
    if (data.size() - offset < kFrameHeaderBytes) {
      scan.damaged = true;
      scan.what = "torn frame header";
      return scan;
    }
    const uint32_t len = GetU32(data.data() + offset);
    if (len > kMaxRecordBytes) {
      scan.damaged = true;
      scan.what = "implausible record length";
      return scan;
    }
    if (data.size() - offset - kFrameHeaderBytes < len) {
      scan.damaged = true;
      scan.what = "torn record payload";
      return scan;
    }
    std::string_view payload =
        data.substr(offset + kFrameHeaderBytes, len);
    const uint32_t crc = Crc32(payload.data(), payload.size());
    if (Crc32Unmask(GetU32(data.data() + offset + 4)) != crc) {
      scan.damaged = true;
      scan.what = "record checksum mismatch";
      return scan;
    }
    *apply_status = apply(payload);
    if (!apply_status->ok()) return scan;
    ++scan.valid_records;
    offset += kFrameHeaderBytes + len;
    scan.valid_bytes = offset;
  }
  return scan;
}

}  // namespace

Result<JournalSegmentScan> ScanJournalSegment(
    FileSystem* fs, const std::string& path, uint32_t expect_index,
    const std::function<Status(std::string_view)>& apply) {
  DIEVENT_ASSIGN_OR_RETURN(std::string data, fs->ReadFile(path));
  Status apply_status = Status::OK();
  SegmentScan scan = ScanSegment(data, expect_index, apply, &apply_status);
  JournalSegmentScan out;
  out.valid_records = scan.valid_records;
  out.valid_bytes = scan.valid_bytes;
  out.damaged = scan.damaged;
  out.damage = scan.what;
  if (!apply_status.ok()) {
    out.payload_rejected = true;
    out.damage = apply_status.message();
  }
  return out;
}

Status ReplayJournal(FileSystem* fs, const std::string& dir,
                     const std::function<Status(std::string_view)>& apply,
                     JournalReplayInfo* info) {
  *info = JournalReplayInfo{};
  if (!fs->Exists(dir)) return Status::OK();
  DIEVENT_ASSIGN_OR_RETURN(std::vector<std::string> names, fs->ListDir(dir));
  std::vector<std::pair<uint32_t, std::string>> segments;
  for (const std::string& name : names) {
    long long index = ParseJournalSegmentName(name);
    if (index >= 0) {
      segments.emplace_back(static_cast<uint32_t>(index), name);
    }
  }
  // ListDir sorts lexicographically; zero-padded names sort numerically
  // up to 999999 but an explicit sort keeps larger indices correct too.
  std::sort(segments.begin(), segments.end());

  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [index, name] = segments[i];
    const std::string path = JoinPath(dir, name);
    DIEVENT_ASSIGN_OR_RETURN(std::string data, fs->ReadFile(path));
    Status apply_status = Status::OK();
    SegmentScan scan = ScanSegment(data, index, apply, &apply_status);
    DIEVENT_RETURN_NOT_OK(apply_status);
    info->records += scan.valid_records;
    ++info->segments;
    if (scan.damaged) {
      if (i + 1 != segments.size()) {
        return Status::Corruption(
            StrFormat("journal segment %s: %s (mid-stream; run fsck)",
                      name.c_str(), scan.what.c_str()));
      }
      // Torn tail of the newest segment: the expected crash artifact.
      info->tail_truncated = true;
      info->truncated_segment = name;
      info->truncate_offset = scan.valid_bytes;
      info->bytes_discarded = data.size() - scan.valid_bytes;
    }
    info->next_segment_index = index + 1;
  }
  return Status::OK();
}

Status TruncateTornTail(FileSystem* fs, const std::string& dir,
                        const JournalReplayInfo& info) {
  if (!info.tail_truncated) return Status::OK();
  const std::string path = JoinPath(dir, info.truncated_segment);
  if (info.truncate_offset < kSegmentHeaderBytes) {
    // Even the header is damaged; drop the segment entirely.
    return fs->Remove(path);
  }
  return fs->Truncate(path, info.truncate_offset);
}

}  // namespace dievent
