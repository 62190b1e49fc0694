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

struct FaceDetectorOptions {
  /// Per-channel color gate half-widths around the model skin/hair tones.
  /// Wide enough for heavy pixel noise (5 sigma at sigma=6), narrow
  /// enough that identity-marker colors a channel-distance > 32 away can
  /// never read as skin.
  int skin_tolerance = 32;
  int hair_tolerance = 26;
  double min_radius_px = 4.0;
  /// Components larger than this fraction of the smaller frame dimension
  /// are rejected (a head never fills the frame in a surveillance view,
  /// and a background-colored region sneaking through the gates would).
  double max_radius_fraction = 0.49;
  /// Minimum component-area / disc-area ratio; rejects thin streaks.
  double min_fill_ratio = 0.25;
  /// Accepted bbox width/height range; heads are roughly round.
  double min_aspect = 0.45;
  double max_aspect = 2.2;
  /// Detections overlapping more than this IoU are non-max suppressed.
  double nms_iou = 0.4;
};

class FaceDetector {
 public:
  explicit FaceDetector(FaceDetectorOptions options = {})
      : options_(options) {}

  /// Finds all faces/heads in an RGB frame. Safe to call concurrently:
  /// every frame-sized buffer lives on a per-thread arena.
  std::vector<FaceDetection> Detect(const ImageRgb& frame) const;

  const FaceDetectorOptions& options() const { return options_; }

 private:
  FaceDetectorOptions options_;
};

}  // namespace dievent

#endif  // DIEVENT_VISION_FACE_DETECTOR_H_
