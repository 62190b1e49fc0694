#include "ml/tracker.h"

#include <algorithm>

#include "ml/hungarian.h"

namespace dievent {

namespace {

/// Matches with IoU below this are forbidden (gating).
constexpr double kMinIou = 0.05;

/// Predicted box for a track one frame ahead (constant-velocity model).
BBox PredictBox(const Track& t) {
  BBox b = t.bbox;
  b.x += static_cast<int>(t.velocity_px.x);
  b.y += static_cast<int>(t.velocity_px.y);
  return b;
}

}  // namespace

const std::vector<Track>& MultiTracker::Update(
    int frame_index, const std::vector<FaceDetection>& detections,
    const std::vector<int>& identities) {
  const int nt = static_cast<int>(tracks_.size());
  const int nd = static_cast<int>(detections.size());
  det_track_ids_.assign(nd, -1);

  std::vector<int> det_for_track(nt, -1);
  if (nt > 0 && nd > 0) {
    std::vector<std::vector<double>> cost(
        nt, std::vector<double>(nd, 0.0));
    for (int t = 0; t < nt; ++t) {
      BBox pred = PredictBox(tracks_[t]);
      for (int d = 0; d < nd; ++d) {
        double iou = IoU(pred, detections[d].bbox);
        // Forbidden matches get a cost far above any feasible one, so the
        // assignment only uses them when no alternative exists; they are
        // filtered below.
        cost[t][d] = iou >= kMinIou ? 1.0 - iou : 1e6;
      }
    }
    std::vector<int> match = SolveAssignment(cost);
    for (int t = 0; t < nt; ++t) {
      if (match[t] >= 0 && cost[t][match[t]] < 1e5) {
        det_for_track[t] = match[t];
      }
    }
  }

  std::vector<bool> det_used(nd, false);
  for (int t = 0; t < nt; ++t) {
    Track& track = tracks_[t];
    int d = det_for_track[t];
    if (d >= 0) {
      det_used[d] = true;
      det_track_ids_[d] = track.track_id;
      const FaceDetection& det = detections[d];
      track.velocity_px = det.center_px - track.center_px;
      track.bbox = det.bbox;
      track.center_px = det.center_px;
      track.radius_px = det.radius_px;
      track.hits += 1;
      track.misses = 0;
      track.last_frame = frame_index;
      if (d < static_cast<int>(identities.size()) && identities[d] >= 0) {
        track.identity = identities[d];
      }
    } else {
      track.misses += 1;
      // Coast along the velocity estimate while unmatched.
      track.bbox = PredictBox(track);
      track.center_px = track.center_px + track.velocity_px;
    }
  }

  // Births.
  for (int d = 0; d < nd; ++d) {
    if (det_used[d]) continue;
    Track t;
    t.track_id = next_id_++;
    t.bbox = detections[d].bbox;
    t.center_px = detections[d].center_px;
    t.radius_px = detections[d].radius_px;
    t.hits = 1;
    t.misses = 0;
    t.last_frame = frame_index;
    if (d < static_cast<int>(identities.size())) {
      t.identity = identities[d];
    }
    det_track_ids_[d] = t.track_id;
    tracks_.push_back(t);
  }

  // Deaths.
  tracks_.erase(
      std::remove_if(tracks_.begin(), tracks_.end(),
                     [this](const Track& t) {
                       return t.misses > options_.max_misses;
                     }),
      tracks_.end());
  return tracks_;
}

std::vector<Track> MultiTracker::ConfirmedTracks() const {
  std::vector<Track> out;
  for (const Track& t : tracks_) {
    if (t.Confirmed()) out.push_back(t);
  }
  return out;
}

int MultiTracker::IdentityOfTrack(int track_id) const {
  for (const Track& t : tracks_) {
    if (t.track_id == track_id) return t.identity;
  }
  return -1;
}

void MultiTracker::Reset() {
  tracks_.clear();
  det_track_ids_.clear();
  next_id_ = 0;
}

}  // namespace dievent
