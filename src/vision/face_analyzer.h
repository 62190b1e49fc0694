/// \file face_analyzer.h
/// Per-camera, per-frame orchestration of the vision stack: detect faces,
/// localize landmarks, lift head position to 3-D, and estimate gaze.
/// Identity assignment is layered on top by the ml library's recognizer.

#ifndef DIEVENT_VISION_FACE_ANALYZER_H_
#define DIEVENT_VISION_FACE_ANALYZER_H_

#include <vector>

#include "geometry/camera.h"
#include "vision/face_detector.h"
#include "vision/gaze_estimator.h"
#include "vision/head_pose.h"
#include "vision/landmarks.h"

namespace dievent {

struct FaceAnalyzerOptions {
  HeadPoseOptions head_pose;
};

class FaceAnalyzer {
 public:
  explicit FaceAnalyzer(FaceAnalyzerOptions options = {})
      : head_pose_(options.head_pose) {}

  /// Analyzes one frame from `camera`. Every detection yields an
  /// observation; `has_gaze` is set only for frontal faces with valid eye
  /// landmarks. Safe to call concurrently.
  std::vector<FaceObservation> Analyze(const CameraModel& camera,
                                       int camera_index,
                                       const ImageRgb& frame) const;

 private:
  FaceDetector detector_;
  LandmarkLocalizer localizer_;
  GazeEstimator gaze_;
  HeadPoseEstimator head_pose_;
};

}  // namespace dievent

#endif  // DIEVENT_VISION_FACE_ANALYZER_H_
