#include "metadata/repository.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/strings.h"
#include "io/crc32.h"
#include "io/file.h"
#include "metadata/record_codec.h"

namespace dievent {

namespace {

constexpr uint32_t kMagicV2 = 0x444D5232;  // "DMR2": per-section CRC32
constexpr uint32_t kVersionV2 = 2;

// Version-2 section identifiers. Each section is framed as
// [u8 id][u32 payload length][u32 masked crc32][payload]; the file ends
// with an empty kSectionEnd.
enum : uint8_t {
  kSectionEnd = 0,
  kSectionContext = 1,
  kSectionFps = 2,
  kSectionLookAt = 3,
  kSectionEmotions = 4,
  kSectionOverall = 5,
  kSectionShots = 6,
};

const char* SectionName(uint8_t id) {
  switch (id) {
    case kSectionContext: return "context";
    case kSectionFps: return "fps";
    case kSectionLookAt: return "look-at";
    case kSectionEmotions: return "emotions";
    case kSectionOverall: return "overall-emotion";
    case kSectionShots: return "shots";
    default: return "unknown";
  }
}

void AppendSection(uint8_t id, const std::string& payload,
                   std::string* out) {
  BinWriter w(out);
  w.U8(id);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32Mask(Crc32(payload.data(), payload.size())));
  out->append(payload);
}

}  // namespace

Status MetadataRepository::AddLookAt(LookAtRecord record) {
  if (record.n <= 0 ||
      record.cells.size() != static_cast<size_t>(record.n) * record.n) {
    return Status::InvalidArgument("malformed look-at record");
  }
  if (!lookat_.empty() && record.frame < lookat_.back().frame) {
    return Status::FailedPrecondition(
        "look-at records must arrive in frame order");
  }
  lookat_.push_back(std::move(record));
  InvalidateIndexes();
  return Status::OK();
}

Status MetadataRepository::AddEmotion(EmotionRecord record) {
  if (!emotions_.empty() && record.frame < emotions_.back().frame) {
    return Status::FailedPrecondition(
        "emotion records must arrive in frame order");
  }
  emotions_.push_back(record);
  return Status::OK();
}

Status MetadataRepository::AddOverallEmotion(OverallEmotionRecord record) {
  if (!overall_.empty() && record.frame < overall_.back().frame) {
    return Status::FailedPrecondition(
        "overall-emotion records must arrive in frame order");
  }
  overall_.push_back(record);
  return Status::OK();
}

void MetadataRepository::SetVideoStructure(const VideoStructure& structure) {
  shots_.clear();
  num_scenes_ = static_cast<int>(structure.scenes.size());
  if (structure.fps > 0) fps_ = structure.fps;
  for (int si = 0; si < num_scenes_; ++si) {
    for (const Shot& shot : structure.scenes[si].shots) {
      StoredShot s;
      s.begin_frame = shot.begin_frame;
      s.end_frame = shot.end_frame;
      s.scene_index = si;
      s.key_frames = shot.key_frames;
      shots_.push_back(std::move(s));
    }
  }
}

void MetadataRepository::SetStoredShots(std::vector<StoredShot> shots,
                                        int num_scenes) {
  shots_ = std::move(shots);
  num_scenes_ = num_scenes;
}

Result<int> MetadataRepository::FindLookAtIndex(int frame) const {
  auto it = std::lower_bound(
      lookat_.begin(), lookat_.end(), frame,
      [](const LookAtRecord& r, int f) { return r.frame < f; });
  if (it == lookat_.end() || it->frame != frame) {
    return Status::NotFound(StrFormat("no look-at record for frame %d",
                                      frame));
  }
  return static_cast<int>(it - lookat_.begin());
}

LookAtSummary MetadataRepository::Summarize(int begin_frame,
                                            int end_frame) const {
  if (lookat_.empty()) return LookAtSummary(0);
  LookAtSummary summary(lookat_.front().n);
  // Records are frame-sorted, so the requested window is a contiguous
  // index range — no need to test every record against the bounds.
  auto lo = std::lower_bound(
      lookat_.begin(), lookat_.end(), begin_frame,
      [](const LookAtRecord& r, int f) { return r.frame < f; });
  auto hi = std::lower_bound(
      lo, lookat_.end(), end_frame,
      [](const LookAtRecord& r, int f) { return r.frame < f; });
  for (auto it = lo; it != hi; ++it) {
    LookAtMatrix m = it->ToMatrix();
    (void)summary.Accumulate(m);
  }
  return summary;
}

std::optional<std::pair<int, int>> MetadataRepository::FrameBounds() const {
  std::optional<std::pair<int, int>> bounds;
  auto fold = [&bounds](int first, int last) {
    if (!bounds) {
      bounds = {first, last};
    } else {
      bounds->first = std::min(bounds->first, first);
      bounds->second = std::max(bounds->second, last);
    }
  };
  if (!lookat_.empty()) fold(lookat_.front().frame, lookat_.back().frame);
  if (!emotions_.empty()) {
    fold(emotions_.front().frame, emotions_.back().frame);
  }
  if (!overall_.empty()) fold(overall_.front().frame, overall_.back().frame);
  return bounds;
}

std::optional<std::pair<double, double>>
MetadataRepository::LookAtTimeBounds() const {
  if (lookat_.empty()) return std::nullopt;
  if (!time_index_valid_) BuildTimeIndex();
  if (time_monotonic_) {
    return std::make_pair(lookat_.front().timestamp_s,
                          lookat_.back().timestamp_s);
  }
  double lo = lookat_.front().timestamp_s, hi = lo;
  for (const LookAtRecord& r : lookat_) {
    lo = std::min(lo, r.timestamp_s);
    hi = std::max(hi, r.timestamp_s);
  }
  return std::make_pair(lo, hi);
}

std::pair<int, int> MetadataRepository::LookAtIndexRangeForTime(
    double t0, double t1) const {
  const int size = static_cast<int>(lookat_.size());
  if (size == 0 || t1 <= t0) return {0, 0};
  if (!time_index_valid_) BuildTimeIndex();
  if (!time_monotonic_) return {0, size};
  auto lo = std::lower_bound(
      lookat_.begin(), lookat_.end(), t0,
      [](const LookAtRecord& r, double t) { return r.timestamp_s < t; });
  auto hi = std::lower_bound(
      lo, lookat_.end(), t1,
      [](const LookAtRecord& r, double t) { return r.timestamp_s < t; });
  return {static_cast<int>(lo - lookat_.begin()),
          static_cast<int>(hi - lookat_.begin())};
}

void MetadataRepository::BuildTimeIndex() const {
  time_monotonic_ = true;
  for (size_t i = 1; i < lookat_.size(); ++i) {
    if (lookat_[i].timestamp_s < lookat_[i - 1].timestamp_s) {
      time_monotonic_ = false;
      break;
    }
  }
  time_index_valid_ = true;
}

void MetadataRepository::InvalidateIndexes() {
  pair_index_valid_ = false;
  time_index_valid_ = false;
}

void MetadataRepository::BuildPairIndex() const {
  pair_index_.clear();
  for (size_t i = 0; i < lookat_.size(); ++i) {
    const LookAtRecord& r = lookat_[i];
    for (int x = 0; x < r.n; ++x) {
      for (int y = 0; y < r.n; ++y) {
        if (x != y && r.At(x, y)) {
          pair_index_[{x, y}].push_back(static_cast<int>(i));
        }
      }
    }
  }
  pair_index_valid_ = true;
}

const std::vector<int>& MetadataRepository::FramesWithLook(
    int looker, int target) const {
  static const std::vector<int> kEmpty;
  if (!pair_index_valid_) BuildPairIndex();
  auto it = pair_index_.find({looker, target});
  return it == pair_index_.end() ? kEmpty : it->second;
}

std::vector<EyeContactEpisode> MetadataRepository::EyeContactEpisodes(
    int min_length, int max_gap) const {
  std::vector<EyeContactEpisode> episodes;
  if (lookat_.empty()) return episodes;
  const int n = lookat_.front().n;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      int run_begin = -1;
      int last_hit = -1;
      for (const LookAtRecord& r : lookat_) {
        bool ec = r.At(a, b) && r.At(b, a);
        if (ec) {
          if (run_begin < 0) {
            run_begin = r.frame;
          } else if (last_hit >= 0 && r.frame - last_hit - 1 > max_gap) {
            if (last_hit + 1 - run_begin >= min_length) {
              episodes.push_back(
                  EyeContactEpisode{a, b, run_begin, last_hit + 1});
            }
            run_begin = r.frame;
          }
          last_hit = r.frame;
        }
      }
      if (run_begin >= 0 && last_hit + 1 - run_begin >= min_length) {
        episodes.push_back(EyeContactEpisode{a, b, run_begin, last_hit + 1});
      }
    }
  }
  std::sort(episodes.begin(), episodes.end(),
            [](const EyeContactEpisode& x, const EyeContactEpisode& y) {
              return x.begin_frame < y.begin_frame;
            });
  return episodes;
}

Status MetadataRepository::Save(const std::string& path) const {
  return Save(FileSystem::Default(), path, 0);
}

Status MetadataRepository::Save(FileSystem* fs, const std::string& path,
                                uint64_t last_sequence) const {
  std::string data;
  {
    BinWriter w(&data);
    w.U32(kMagicV2);
    w.U32(kVersionV2);
    w.U64(last_sequence);
    w.U32(Crc32Mask(Crc32(data.data(), data.size())));
  }

  std::string payload;
  EncodeContext(context_, &payload);
  AppendSection(kSectionContext, payload, &data);

  payload.clear();
  BinWriter(&payload).F64(fps_);
  AppendSection(kSectionFps, payload, &data);

  payload.clear();
  BinWriter(&payload).U32(static_cast<uint32_t>(lookat_.size()));
  for (const auto& r : lookat_) EncodeLookAt(r, &payload);
  AppendSection(kSectionLookAt, payload, &data);

  payload.clear();
  BinWriter(&payload).U32(static_cast<uint32_t>(emotions_.size()));
  for (const auto& r : emotions_) EncodeEmotion(r, &payload);
  AppendSection(kSectionEmotions, payload, &data);

  payload.clear();
  BinWriter(&payload).U32(static_cast<uint32_t>(overall_.size()));
  for (const auto& r : overall_) EncodeOverallEmotion(r, &payload);
  AppendSection(kSectionOverall, payload, &data);

  payload.clear();
  EncodeShots(shots_, num_scenes_, &payload);
  AppendSection(kSectionShots, payload, &data);

  AppendSection(kSectionEnd, std::string(), &data);
  return AtomicWriteFile(fs, path, data);
}

namespace {

/// Parses one v2 section payload into `repo`.
Status ParseV2Section(uint8_t id, std::string_view payload,
                      MetadataRepository* repo) {
  BinReader r(payload);
  switch (id) {
    case kSectionContext: {
      EventContext ctx;
      DIEVENT_RETURN_NOT_OK(DecodeContext(&r, &ctx));
      repo->SetContext(std::move(ctx));
      break;
    }
    case kSectionFps:
      repo->set_fps(r.F64());
      break;
    case kSectionLookAt: {
      uint32_t n = r.U32();
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        LookAtRecord rec;
        DIEVENT_RETURN_NOT_OK(DecodeLookAt(&r, &rec));
        DIEVENT_RETURN_NOT_OK(repo->AddLookAt(std::move(rec)));
      }
      break;
    }
    case kSectionEmotions: {
      uint32_t n = r.U32();
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        EmotionRecord rec;
        DIEVENT_RETURN_NOT_OK(DecodeEmotion(&r, &rec));
        DIEVENT_RETURN_NOT_OK(repo->AddEmotion(rec));
      }
      break;
    }
    case kSectionOverall: {
      uint32_t n = r.U32();
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        OverallEmotionRecord rec;
        DIEVENT_RETURN_NOT_OK(DecodeOverallEmotion(&r, &rec));
        DIEVENT_RETURN_NOT_OK(repo->AddOverallEmotion(rec));
      }
      break;
    }
    case kSectionShots: {
      std::vector<StoredShot> shots;
      int num_scenes = 0;
      DIEVENT_RETURN_NOT_OK(DecodeShots(&r, &shots, &num_scenes));
      repo->SetStoredShots(std::move(shots), num_scenes);
      break;
    }
    default:
      return Status::Corruption(
          StrFormat("unknown snapshot section id %u", id));
  }
  if (!r.ok()) {
    return Status::Corruption(StrFormat("truncated %s section",
                                        SectionName(id)));
  }
  if (!r.AtEnd()) {
    return Status::Corruption(
        StrFormat("%s section has %zu trailing bytes", SectionName(id),
                  r.remaining()));
  }
  return Status::OK();
}

}  // namespace

Result<MetadataRepository> MetadataRepository::Load(
    const std::string& path) {
  return Load(FileSystem::Default(), path, nullptr);
}

Result<MetadataRepository> MetadataRepository::Load(FileSystem* fs,
                                                    const std::string& path,
                                                    SnapshotInfo* info) {
  DIEVENT_ASSIGN_OR_RETURN(std::string data, fs->ReadFile(path));
  BinReader r(data);
  const uint32_t magic = r.U32();
  if (!r.ok() || magic != kMagicV2) {
    return Status::Corruption("bad repository magic: " + path);
  }

  const uint32_t version = r.U32();
  const uint64_t last_sequence = r.U64();
  const uint32_t header_crc = r.U32();
  if (!r.ok() || version != kVersionV2) {
    return Status::Corruption("unsupported repository version: " + path);
  }
  if (Crc32Unmask(header_crc) != Crc32(data.data(), 16)) {
    return Status::Corruption("snapshot header checksum mismatch: " + path);
  }
  if (info != nullptr) *info = SnapshotInfo{last_sequence, version};

  MetadataRepository repo;
  bool saw_end = false;
  while (!saw_end) {
    const uint8_t id = r.U8();
    const uint32_t len = r.U32();
    const uint32_t masked_crc = r.U32();
    if (!r.ok()) {
      return Status::Corruption("truncated snapshot section header: " +
                                path);
    }
    std::string_view payload = r.Span(len);
    if (!r.ok()) {
      return Status::Corruption(
          StrFormat("truncated %s section in %s", SectionName(id),
                    path.c_str()));
    }
    if (Crc32Unmask(masked_crc) != Crc32(payload.data(), payload.size())) {
      return Status::Corruption(
          StrFormat("%s section checksum mismatch in %s", SectionName(id),
                    path.c_str()));
    }
    if (id == kSectionEnd) {
      saw_end = true;
      break;
    }
    DIEVENT_RETURN_NOT_OK(ParseV2Section(id, payload, &repo));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after snapshot end: " + path);
  }
  return repo;
}

}  // namespace dievent
