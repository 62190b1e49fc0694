#include "analysis/fusion.h"

namespace dievent {

namespace {

/// Weight multiplier for observations extracted from held (stale) frames —
/// a failed camera's last good read substituted by the acquisition layer.
/// Heads move little over a few frames, so stale views still anchor
/// position, but fresh views must dominate and win best-view gaze
/// selection.
constexpr double kStaleViewWeight = 0.5;

/// Resolves unknown identities by the seat prior: each unidentified
/// observation adopts the nearest seat within the gate radius. Several
/// observations may map to the same seat — different cameras legitimately
/// see the same participant — so this is a per-observation lookup, not an
/// assignment.
void ApplySeatPrior(std::vector<FaceObservation>* observations,
                    const FusionOptions& options) {
  const auto& seats = options.seat_prior;
  if (seats.empty()) return;
  for (FaceObservation& obs : *observations) {
    if (obs.identity >= 0) continue;
    int best = -1;
    double best_d = options.seat_radius_m;
    for (size_t s = 0; s < seats.size(); ++s) {
      double d = (obs.head_position_world - seats[s]).Norm();
      if (d <= best_d) {
        best_d = d;
        best = static_cast<int>(s);
      }
    }
    if (best >= 0) {
      obs.identity = best;
      // Seat-derived identity: confident in proportion to proximity.
      obs.identity_confidence = 1.0 - best_d / options.seat_radius_m;
    }
  }
}

}  // namespace

std::vector<FusedParticipant> FuseObservations(
    const std::vector<FaceObservation>& observations, int num_participants,
    const FusionOptions& options) {
  std::vector<FaceObservation> resolved = observations;
  ApplySeatPrior(&resolved, options);

  std::vector<FusedParticipant> fused(num_participants);
  for (int i = 0; i < num_participants; ++i) fused[i].id = i;

  // Weighted position accumulation; weight = projected radius (larger
  // radius = closer camera = better depth resolution).
  std::vector<Vec3> pos_sum(num_participants, Vec3{});
  std::vector<double> weight_sum(num_participants, 0.0);
  std::vector<Vec3> gaze_sum(num_participants, Vec3{});

  // Best-view selection compares stale-discounted scores, so a fresh view
  // beats a larger-but-stale one; best_radius_px keeps the winner's true
  // radius.
  std::vector<double> best_score(num_participants, 0.0);
  for (const FaceObservation& obs : resolved) {
    if (obs.identity < 0 || obs.identity >= num_participants) continue;
    if (obs.identity_confidence < options.min_identity_confidence) continue;
    const double staleness = obs.stale ? kStaleViewWeight : 1.0;
    FusedParticipant& f = fused[obs.identity];
    f.num_views += 1;
    if (obs.stale) f.num_stale_views += 1;
    double w = obs.detection.radius_px * staleness;
    pos_sum[obs.identity] += obs.head_position_world * w;
    weight_sum[obs.identity] += w;
    if (obs.detection.front_facing && obs.has_gaze) {
      f.num_frontal_views += 1;
      gaze_sum[obs.identity] += obs.gaze_world * staleness;
      if (w > best_score[obs.identity]) {
        best_score[obs.identity] = w;
        f.best_radius_px = obs.detection.radius_px;
        f.best_camera = obs.camera_index;
        if (options.gaze_mode == GazeFusionMode::kBestView) {
          f.geometry.gaze_direction = obs.gaze_world;
        }
      }
    }
  }

  for (int i = 0; i < num_participants; ++i) {
    if (weight_sum[i] > 0.0) {
      fused[i].geometry.head_position = pos_sum[i] / weight_sum[i];
    }
    if (options.gaze_mode == GazeFusionMode::kAverage &&
        fused[i].num_frontal_views > 0) {
      fused[i].geometry.gaze_direction = gaze_sum[i].Normalized();
    }
  }
  return fused;
}

std::vector<ParticipantGeometry> ToGeometry(
    const std::vector<FusedParticipant>& fused) {
  std::vector<ParticipantGeometry> out;
  out.reserve(fused.size());
  for (const FusedParticipant& f : fused) out.push_back(f.geometry);
  return out;
}

}  // namespace dievent
