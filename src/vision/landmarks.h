/// \file landmarks.h
/// Facial-landmark localization inside a frontal face detection: eye
/// sockets, irises, and mouth. The localizer searches the appearance
/// model's nominal regions for the corresponding colors, so it tolerates
/// detector jitter and pixel noise.

#ifndef DIEVENT_VISION_LANDMARKS_H_
#define DIEVENT_VISION_LANDMARKS_H_

#include "image/image.h"
#include "vision/face_types.h"

namespace dievent {

class LandmarkLocalizer {
 public:
  /// Localizes landmarks for one frontal detection. Non-frontal detections,
  /// and any detection on a frame without exactly 3 channels (RGB), return
  /// landmarks with all validity flags false.
  FaceLandmarks Localize(const ImageRgb& frame,
                         const FaceDetection& detection) const;
};

}  // namespace dievent

#endif  // DIEVENT_VISION_LANDMARKS_H_
