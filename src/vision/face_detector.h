/// \file face_detector.h
/// Appearance-model face detection.
///
/// The renderer draws faces as skin-tone discs and turned-away heads as
/// hair discs; the detector inverts that: it builds skin/hair masks by
/// color gating, extracts connected components, and fits a disc to each
/// sufficiently large, sufficiently round component. This plays the role
/// of the paper's OpenFace face detector on real imagery.

#ifndef DIEVENT_VISION_FACE_DETECTOR_H_
#define DIEVENT_VISION_FACE_DETECTOR_H_

#include <vector>

#include "image/image.h"
#include "vision/face_types.h"

namespace dievent {

class FaceDetector {
 public:
  /// Finds all faces/heads in an RGB frame. A frame that does not have 3
  /// channels yields no detections. Safe to call concurrently: every
  /// frame-sized buffer lives in a per-thread workspace.
  std::vector<FaceDetection> Detect(const ImageRgb& frame) const;
};

}  // namespace dievent

#endif  // DIEVENT_VISION_FACE_DETECTOR_H_
