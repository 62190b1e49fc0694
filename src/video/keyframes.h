/// \file keyframes.h
/// Key-frame extraction — step 2 of the paper's video composition analysis.
///
/// Within a shot, a sequential-clustering pass keeps the first frame and
/// every frame that drifts far enough (histogram distance) from the last
/// selected key frame. Static shots yield one key frame; shots with motion
/// yield proportionally more.

#ifndef DIEVENT_VIDEO_KEYFRAMES_H_
#define DIEVENT_VIDEO_KEYFRAMES_H_

#include <vector>

#include "common/result.h"
#include "image/histogram.h"
#include "video/video_source.h"
#include "video/video_structure.h"

namespace dievent {

struct KeyFrameOptions {
  /// Chi-square drift from the current key frame that triggers a new one.
  double drift_threshold = 0.08;
  /// Signature bins per channel for the source overload; a power of two in
  /// [1, 256] (IsValidBinCount).
  int bins_per_channel = 8;
  /// Hard cap per shot (0 = unlimited).
  int max_key_frames_per_shot = 0;
};

/// Selects key-frame indices for one shot given per-frame signatures of
/// the *whole* video (indexed absolutely).
std::vector<int> ExtractKeyFrames(const std::vector<Histogram>& signatures,
                                  const Shot& shot,
                                  const KeyFrameOptions& options);

/// Convenience: decodes the shot's frames from `source` and extracts key
/// frames.
Result<std::vector<int>> ExtractKeyFrames(VideoSource* source,
                                          const Shot& shot,
                                          const KeyFrameOptions& options);

}  // namespace dievent

#endif  // DIEVENT_VIDEO_KEYFRAMES_H_
