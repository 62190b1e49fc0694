/// \file fusion.h
/// Cross-camera observation fusion: the per-frame bridge from each
/// camera's FaceObservations (identity-tagged) to one geometric state per
/// participant — the input of the eye-contact detector. This realizes the
/// paper's "have a wide view using multiple cameras" design point: a
/// participant only needs a frontal view in *some* camera.

#ifndef DIEVENT_ANALYSIS_FUSION_H_
#define DIEVENT_ANALYSIS_FUSION_H_

#include <optional>
#include <vector>

#include "analysis/eye_contact.h"
#include "geometry/vec.h"
#include "vision/face_types.h"

namespace dievent {

enum class GazeFusionMode {
  /// Use the camera with the most frontal view (most reliable irises).
  kBestView,
  /// Average unit gaze vectors across all frontal views.
  kAverage,
};

struct FusionOptions {
  GazeFusionMode gaze_mode = GazeFusionMode::kBestView;
  /// Minimum identity confidence to accept an observation at all.
  double min_identity_confidence = 0.0;
  /// Seat prior: expected head positions per participant (index = id).
  /// When non-empty, observations whose recognizer identity is unknown
  /// (-1) are assigned to the nearest *unclaimed* seat within
  /// `seat_radius_m` — dining participants rarely move seats, so the
  /// seat is a strong identity cue when appearance fails.
  std::vector<Vec3> seat_prior;
  double seat_radius_m = 0.45;
};

/// Fused per-participant state plus bookkeeping on where it came from.
struct FusedParticipant {
  int id = -1;
  ParticipantGeometry geometry;
  int num_views = 0;        ///< cameras that saw this participant
  int num_frontal_views = 0;
  int num_stale_views = 0;  ///< views from held (substituted) frames
  int best_camera = -1;     ///< camera with the largest frontal face
  double best_radius_px = 0;
};

/// Fuses one frame's observations (all cameras concatenated, identities
/// assigned) into per-participant geometry. `num_participants` fixes the
/// output size; participants seen by no camera have num_views == 0 and an
/// unset gaze.
std::vector<FusedParticipant> FuseObservations(
    const std::vector<FaceObservation>& observations, int num_participants,
    const FusionOptions& options = {});

/// Extracts the geometry vector the eye-contact detector expects.
std::vector<ParticipantGeometry> ToGeometry(
    const std::vector<FusedParticipant>& fused);

}  // namespace dievent

#endif  // DIEVENT_ANALYSIS_FUSION_H_
