#include "core/frame_analyzer.h"

#include <algorithm>

#include "common/strings.h"

namespace dievent {

FrameAnalyzer::FrameAnalyzer(const Rig* rig, FrameAnalyzerOptions options,
                             std::vector<int> cameras,
                             int num_participants)
    : rig_(rig),
      options_(options),
      cameras_(std::move(cameras)),
      num_participants_(num_participants),
      analyzer_(options.vision),
      recognizer_(options.recognizer_reject_distance),
      ec_detector_(options.eye_contact),
      trackers_(cameras_.size(), MultiTracker(options.tracker)) {
  if (options_.num_threads > 1 && cameras_.size() > 1) {
    pool_ = std::make_unique<ThreadPool>(
        std::min<int>(options_.num_threads,
                      static_cast<int>(cameras_.size())));
  }
}

Result<FrameAnalyzer> FrameAnalyzer::Create(
    const Rig* rig, std::vector<ParticipantProfile> profiles,
    FrameAnalyzerOptions options, std::vector<int> cameras) {
  if (rig == nullptr || rig->NumCameras() == 0) {
    return Status::InvalidArgument("need a rig with at least one camera");
  }
  if (profiles.empty()) {
    return Status::InvalidArgument("need at least one enrolled profile");
  }
  if (cameras.empty()) {
    for (int c = 0; c < rig->NumCameras(); ++c) cameras.push_back(c);
  }
  for (int c : cameras) {
    if (c < 0 || c >= rig->NumCameras()) {
      return Status::InvalidArgument(
          StrFormat("camera %d not in the rig", c));
    }
  }
  FrameAnalyzer out(rig, std::move(options), std::move(cameras),
                    static_cast<int>(profiles.size()));
  DIEVENT_RETURN_NOT_OK(out.recognizer_.EnrollProfiles(profiles));
  return out;
}

Result<FrameAnalysis> FrameAnalyzer::Analyze(
    int frame_index, const std::vector<ImageRgb>& frames) {
  return Analyze(frame_index, frames,
                 std::vector<CameraFrameQuality>(
                     frames.size(), CameraFrameQuality::kFresh));
}

Result<FrameAnalysis> FrameAnalyzer::Analyze(
    int frame_index, const std::vector<ImageRgb>& frames,
    const std::vector<CameraFrameQuality>& quality) {
  if (frames.size() != cameras_.size()) {
    return Status::InvalidArgument(StrFormat(
        "expected %zu frames (one per active camera), got %zu",
        cameras_.size(), frames.size()));
  }
  if (quality.size() != frames.size()) {
    return Status::InvalidArgument(StrFormat(
        "expected %zu quality flags (one per frame), got %zu",
        frames.size(), quality.size()));
  }
  for (size_t c = 0; c < frames.size(); ++c) {
    if (quality[c] != CameraFrameQuality::kAbsent &&
        frames[c].channels() != 3) {
      return Status::InvalidArgument(StrFormat(
          "camera %s: frame has %d channels, need 3 (RGB)",
          rig_->camera(cameras_[c]).name().c_str(), frames[c].channels()));
    }
  }

  std::vector<CameraVision> vision(cameras_.size());
  auto process_camera = [&](int c) {
    vision[c] = AnalyzeCameraStateless(c, frames[c], quality[c]);
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(static_cast<int>(cameras_.size()), process_camera);
  } else {
    for (int c = 0; c < static_cast<int>(cameras_.size()); ++c) {
      process_camera(c);
    }
  }
  return CommitFrame(frame_index, std::move(vision), quality);
}

CameraVision FrameAnalyzer::AnalyzeCameraStateless(
    int camera_slot, const ImageRgb& frame,
    CameraFrameQuality quality) const {
  CameraVision out;
  if (quality == CameraFrameQuality::kAbsent) return out;
  const int rig_camera = cameras_[camera_slot];
  out.obs = analyzer_.Analyze(rig_->camera(rig_camera), rig_camera, frame);
  out.detections.reserve(out.obs.size());
  out.identities.reserve(out.obs.size());
  for (auto& o : out.obs) {
    IdentityMatch m = recognizer_.Recognize(frame, o.detection);
    o.identity = m.id;
    o.identity_confidence = m.confidence;
    o.stale = quality == CameraFrameQuality::kStale;
    out.detections.push_back(o.detection);
    out.identities.push_back(m.id);
  }
  return out;
}

Result<FrameAnalysis> FrameAnalyzer::CommitFrame(
    int frame_index, std::vector<CameraVision> vision,
    const std::vector<CameraFrameQuality>& quality) {
  if (vision.size() != cameras_.size()) {
    return Status::InvalidArgument(StrFormat(
        "expected %zu camera results (one per active camera), got %zu",
        cameras_.size(), vision.size()));
  }
  if (quality.size() != vision.size()) {
    return Status::InvalidArgument(StrFormat(
        "expected %zu quality flags (one per camera), got %zu",
        vision.size(), quality.size()));
  }
  FrameAnalysis result;
  result.per_camera.resize(cameras_.size());
  for (CameraFrameQuality q : quality) {
    result.cameras_used += q != CameraFrameQuality::kAbsent ? 1 : 0;
  }

  for (size_t c = 0; c < cameras_.size(); ++c) {
    if (quality[c] == CameraFrameQuality::kAbsent) {
      // The camera produced nothing: feed the tracker an empty detection
      // set so its tracks age out instead of freezing at the last sight.
      trackers_[c].Update(frame_index, {}, {});
      continue;
    }
    CameraVision& v = vision[c];
    trackers_[c].Update(frame_index, v.detections, v.identities);
    const std::vector<int>& track_ids =
        trackers_[c].last_detection_track_ids();
    for (size_t d = 0; d < v.obs.size(); ++d) {
      if (v.obs[d].identity < 0 && d < track_ids.size()) {
        v.obs[d].identity = trackers_[c].IdentityOfTrack(track_ids[d]);
      }
    }
    result.per_camera[c] = std::move(v.obs);
  }

  std::vector<FaceObservation> all;
  for (const auto& cam_obs : result.per_camera) {
    all.insert(all.end(), cam_obs.begin(), cam_obs.end());
  }
  result.fused = FuseObservations(all, num_participants_, options_.fusion);
  std::vector<ParticipantGeometry> geometry = ToGeometry(result.fused);
  for (int i = 0; i < num_participants_; ++i) {
    if (result.fused[i].num_views == 0) {
      geometry[i].gaze_direction.reset();
    }
  }
  result.lookat = ec_detector_.ComputeLookAt(geometry);
  return result;
}

void FrameAnalyzer::ResetTracking() {
  for (MultiTracker& tracker : trackers_) tracker.Reset();
}

}  // namespace dievent
