/// \file repository.h
/// The metadata repository (paper Section II-E): stores the collected
/// (time-invariant) and extracted (time-variant) metadata of one analyzed
/// event, maintains lookup indexes, derives eye-contact episodes, and
/// persists everything to a single binary file.

#ifndef DIEVENT_METADATA_REPOSITORY_H_
#define DIEVENT_METADATA_REPOSITORY_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/layers.h"
#include "common/result.h"
#include "metadata/records.h"
#include "video/video_structure.h"

namespace dievent {

class FileSystem;

class MetadataRepository {
 public:
  MetadataRepository() = default;

  // --- time-invariant layer -------------------------------------------
  void SetContext(EventContext context) { context_ = std::move(context); }
  const EventContext& context() const { return context_; }

  // --- ingestion (records must arrive in non-decreasing frame order) ---
  Status AddLookAt(LookAtRecord record);
  Status AddEmotion(EmotionRecord record);
  Status AddOverallEmotion(OverallEmotionRecord record);
  void SetVideoStructure(const VideoStructure& structure);

  /// Replaces the stored shot table directly — used by persistence
  /// replay (durable_store.cc), which journals the derived form.
  void SetStoredShots(std::vector<StoredShot> shots, int num_scenes);

  // --- access -----------------------------------------------------------
  const std::vector<LookAtRecord>& lookat_records() const {
    return lookat_;
  }
  const std::vector<EmotionRecord>& emotion_records() const {
    return emotions_;
  }
  const std::vector<OverallEmotionRecord>& overall_records() const {
    return overall_;
  }
  const std::vector<StoredShot>& shots() const { return shots_; }
  int NumScenes() const { return num_scenes_; }
  double fps() const { return fps_; }
  void set_fps(double fps) { fps_ = fps; }

  /// Index of the look-at record for `frame`, or NotFound.
  Result<int> FindLookAtIndex(int frame) const;

  /// Inclusive frame bounds over every frame-stamped record type, or
  /// nullopt when the repository holds no frame records. Feeds the
  /// corpus shard manifest (metadata/corpus.h).
  std::optional<std::pair<int, int>> FrameBounds() const;

  /// Inclusive timestamp bounds over the look-at records, or nullopt
  /// when there are none.
  std::optional<std::pair<double, double>> LookAtTimeBounds() const;

  /// [lo, hi) index range into lookat_records() whose timestamps can
  /// fall inside [t0, t1). Binary-searched when timestamps are
  /// non-decreasing (the steady-state ingest order); falls back to the
  /// full range otherwise, so callers can always filter within it.
  std::pair<int, int> LookAtIndexRangeForTime(double t0, double t1) const;

  /// Builds the Fig. 9 summary over a frame range ([0, INT_MAX) = all).
  LookAtSummary Summarize(int begin_frame = 0,
                          int end_frame = 0x7fffffff) const;

  /// Frames (indices into lookat_records) where `looker` looks at
  /// `target`; served from the lazily-built pair index.
  const std::vector<int>& FramesWithLook(int looker, int target) const;

  /// Derives maximal eye-contact episodes of at least `min_length`
  /// frames, allowing gaps up to `max_gap` frames (detector dropouts).
  std::vector<EyeContactEpisode> EyeContactEpisodes(int min_length = 1,
                                                    int max_gap = 0) const;

  // --- persistence ------------------------------------------------------
  /// Sidecar facts a snapshot carries beyond the records themselves.
  struct SnapshotInfo {
    uint64_t last_sequence = 0;  ///< journal sequence folded in (0 = none)
    uint32_t version = 0;        ///< on-disk format version loaded
  };

  /// Atomically writes the version-2 snapshot (write-temp / fsync /
  /// rename): per-section CRC32s, a version tag, and `last_sequence`
  /// for journal replay dedup. Readers never observe a partial file.
  Status Save(const std::string& path) const;
  Status Save(FileSystem* fs, const std::string& path,
              uint64_t last_sequence) const;

  /// Loads a version-2 snapshot. Any other magic (including the retired
  /// unchecksummed "DMR1" format), and any framing, checksum, or shape
  /// violation, returns a descriptive Corruption — never a partial or
  /// silently wrong repository.
  static Result<MetadataRepository> Load(const std::string& path);
  static Result<MetadataRepository> Load(FileSystem* fs,
                                         const std::string& path,
                                         SnapshotInfo* info = nullptr);

  /// Total stored record count across all types.
  size_t TotalRecords() const {
    return lookat_.size() + emotions_.size() + overall_.size() +
           shots_.size();
  }

 private:
  void InvalidateIndexes();
  void BuildPairIndex() const;
  void BuildTimeIndex() const;

  EventContext context_;
  double fps_ = 0.0;
  std::vector<LookAtRecord> lookat_;
  std::vector<EmotionRecord> emotions_;
  std::vector<OverallEmotionRecord> overall_;
  std::vector<StoredShot> shots_;
  int num_scenes_ = 0;

  // Lazy pair index: (looker, target) -> sorted record indices.
  mutable bool pair_index_valid_ = false;
  mutable std::map<std::pair<int, int>, std::vector<int>> pair_index_;

  // Lazy time index: whether look-at timestamps are non-decreasing,
  // which is what makes LookAtIndexRangeForTime binary-searchable.
  mutable bool time_index_valid_ = false;
  mutable bool time_monotonic_ = false;
};

}  // namespace dievent

#endif  // DIEVENT_METADATA_REPOSITORY_H_
