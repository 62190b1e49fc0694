#include "vision/face_analyzer.h"

namespace dievent {

std::vector<FaceObservation> FaceAnalyzer::Analyze(
    const CameraModel& camera, int camera_index,
    const ImageRgb& frame) const {
  std::vector<FaceObservation> out;
  for (const FaceDetection& det : detector_.Detect(frame)) {
    FaceObservation obs;
    obs.camera_index = camera_index;
    obs.detection = det;
    obs.head_position_camera = head_pose_.EstimateCameraPosition(camera, det);
    obs.head_position_world =
        camera.world_from_camera().TransformPoint(obs.head_position_camera);
    if (det.front_facing) {
      obs.landmarks = localizer_.Localize(frame, det);
      if (auto g = gaze_.EstimateCameraGaze(det, obs.landmarks)) {
        obs.has_gaze = true;
        obs.gaze_camera = *g;
        obs.gaze_world =
            camera.world_from_camera().TransformDirection(*g);
      }
    }
    out.push_back(std::move(obs));
  }
  return out;
}

}  // namespace dievent
