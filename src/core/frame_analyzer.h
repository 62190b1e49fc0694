/// \file frame_analyzer.h
/// The per-frame analysis engine behind DiEventPipeline, exposed as a
/// standalone API: feed one synchronized frame set (one image per rig
/// camera) and get back the paper's per-frame products — identified face
/// observations, fused per-participant geometry, and the look-at matrix.
///
/// Use this directly when your frames come from real footage (e.g. via
/// ImageSequenceSource) rather than the simulator; the pipeline facade
/// builds on the same engine.

#ifndef DIEVENT_CORE_FRAME_ANALYZER_H_
#define DIEVENT_CORE_FRAME_ANALYZER_H_

#include <memory>
#include <vector>

#include "analysis/eye_contact.h"
#include "analysis/fusion.h"
#include "analysis/lookat_matrix.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "geometry/rig.h"
#include "ml/face_recognizer.h"
#include "ml/tracker.h"
#include "vision/face_analyzer.h"

namespace dievent {

struct FrameAnalyzerOptions {
  FaceAnalyzerOptions vision;
  double recognizer_reject_distance = 0.35;
  TrackerOptions tracker;
  FusionOptions fusion;
  EyeContactOptions eye_contact;
  /// Worker threads for the per-camera work (1 = sequential).
  int num_threads = 1;
};

/// Per-frame quality of one active camera's image, as reported by the
/// acquisition layer.
enum class CameraFrameQuality : uint8_t {
  kAbsent = 0,  ///< camera delivered nothing this frame (skip it)
  kFresh = 1,   ///< a real decode of this frame
  kStale = 2,   ///< a held last-good substitute (observations marked stale)
};

/// Everything extracted from one synchronized frame set.
struct FrameAnalysis {
  /// Per active camera (same order as the camera list), the identified
  /// observations.
  std::vector<std::vector<FaceObservation>> per_camera;
  std::vector<FusedParticipant> fused;
  LookAtMatrix lookat;
  int cameras_used = 0;  ///< cameras that contributed an image this frame
};

/// The stateless share of one camera's per-frame analysis: detections,
/// landmarks, gaze, and appearance identity — everything except tracking.
/// Produced by AnalyzeCameraStateless (any thread, any frame order) and
/// consumed by CommitFrame (strict frame order).
struct CameraVision {
  std::vector<FaceObservation> obs;
  /// Extracts handed to the per-camera tracker at commit time, parallel
  /// to `obs`.
  std::vector<FaceDetection> detections;
  std::vector<int> identities;
};

class FrameAnalyzer {
 public:
  /// `rig` must outlive the analyzer. `cameras` selects active rig
  /// cameras (empty = all); `profiles` are the enrolled identities.
  static Result<FrameAnalyzer> Create(
      const Rig* rig, std::vector<ParticipantProfile> profiles,
      FrameAnalyzerOptions options, std::vector<int> cameras = {});

  /// Analyzes one frame set. `frames` must be parallel to the active
  /// camera list. Tracking state advances with `frame_index`.
  Result<FrameAnalysis> Analyze(int frame_index,
                                const std::vector<ImageRgb>& frames);

  /// Degradation-aware variant: `quality` (parallel to `frames`) marks
  /// which cameras actually delivered an image this frame. Absent cameras
  /// are skipped (their trackers see an empty detection set, so tracks age
  /// out naturally); stale cameras are analyzed but their observations are
  /// flagged for down-weighted fusion. `frames[c]` is ignored for absent
  /// cameras and may be empty; every other frame must have 3 channels
  /// (InvalidArgument naming the camera otherwise).
  Result<FrameAnalysis> Analyze(int frame_index,
                                const std::vector<ImageRgb>& frames,
                                const std::vector<CameraFrameQuality>& quality);

  /// The order-independent half of Analyze for one camera: detection,
  /// landmarks, gaze, appearance identity. Touches no tracker state, so
  /// the pipelined executor runs it concurrently across cameras *and*
  /// frames; Analyze itself is AnalyzeCameraStateless per camera followed
  /// by CommitFrame. `camera_slot` indexes the active camera list.
  CameraVision AnalyzeCameraStateless(int camera_slot, const ImageRgb& frame,
                                      CameraFrameQuality quality) const;

  /// The order-dependent half: advances each camera's tracker, backfills
  /// identities from tracks, fuses across cameras, and computes the
  /// look-at matrix. Must be called exactly once per analyzed frame, in
  /// frame order. `vision` must be parallel to the active camera list.
  Result<FrameAnalysis> CommitFrame(int frame_index,
                                    std::vector<CameraVision> vision,
                                    const std::vector<CameraFrameQuality>& quality);

  /// Clears tracking state (e.g. when seeking in the video).
  void ResetTracking();

  const std::vector<int>& cameras() const { return cameras_; }
  int NumParticipants() const { return num_participants_; }

 private:
  FrameAnalyzer(const Rig* rig, FrameAnalyzerOptions options,
                std::vector<int> cameras, int num_participants);

  const Rig* rig_;  // not owned
  FrameAnalyzerOptions options_;
  std::vector<int> cameras_;
  int num_participants_;
  FaceAnalyzer analyzer_;
  FaceRecognizer recognizer_;
  EyeContactDetector ec_detector_;
  std::vector<MultiTracker> trackers_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dievent

#endif  // DIEVENT_CORE_FRAME_ANALYZER_H_
