/// \file tracker.h
/// Multi-target face tracking within one camera stream ("human face
/// tracking", framework component 3). Detections are associated to live
/// tracks by minimum-cost assignment over an IoU/centre-distance cost,
/// with track birth on unmatched detections and death after consecutive
/// misses.

#ifndef DIEVENT_ML_TRACKER_H_
#define DIEVENT_ML_TRACKER_H_

#include <vector>

#include "vision/face_types.h"

namespace dievent {

struct TrackerOptions {
  /// Tracks are dropped after this many consecutive unmatched frames.
  int max_misses = 8;
};

/// One tracked head.
struct Track {
  int track_id = -1;
  BBox bbox;
  Vec2 center_px;
  double radius_px = 0;
  int identity = -1;  ///< latest recognized participant id, -1 unknown
  int hits = 0;       ///< total matched frames
  int misses = 0;     ///< consecutive unmatched frames
  int last_frame = -1;
  Vec2 velocity_px;   ///< per-frame centre motion estimate

  /// A track is confirmed (reported) after this many hits.
  static constexpr int kMinHits = 2;

  bool Confirmed() const { return hits >= kMinHits; }
};

class MultiTracker {
 public:
  explicit MultiTracker(TrackerOptions options = {}) : options_(options) {}

  /// Consumes the detections of frame `frame_index` and returns the
  /// updated set of live tracks. The `identities` vector (parallel to
  /// `detections`, -1 allowed) refreshes each matched track's identity.
  const std::vector<Track>& Update(
      int frame_index, const std::vector<FaceDetection>& detections,
      const std::vector<int>& identities = {});

  const std::vector<Track>& tracks() const { return tracks_; }

  /// Track ids assigned to each detection of the last Update call
  /// (parallel to its `detections`; includes newborn tracks).
  const std::vector<int>& last_detection_track_ids() const {
    return det_track_ids_;
  }

  /// Latest identity carried by the given track, or -1.
  int IdentityOfTrack(int track_id) const;

  /// Confirmed tracks only.
  std::vector<Track> ConfirmedTracks() const;

  void Reset();

 private:
  TrackerOptions options_;
  std::vector<Track> tracks_;
  std::vector<int> det_track_ids_;
  int next_id_ = 0;
};

}  // namespace dievent

#endif  // DIEVENT_ML_TRACKER_H_
