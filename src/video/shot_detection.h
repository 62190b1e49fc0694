/// \file shot_detection.h
/// Shot-boundary detection — step 1 of the paper's video composition
/// analysis (Section II-B).
///
/// A color-histogram signature is computed per frame; consecutive-frame
/// distances above an adaptive threshold are declared cuts. The distance
/// metric and thresholding mode are configurable so the parsing benchmark
/// can ablate them.

#ifndef DIEVENT_VIDEO_SHOT_DETECTION_H_
#define DIEVENT_VIDEO_SHOT_DETECTION_H_

#include <vector>

#include "common/result.h"
#include "image/histogram.h"
#include "video/video_source.h"
#include "video/video_structure.h"

namespace dievent {

enum class HistogramMetric { kChiSquare, kL1 };
enum class ThresholdMode { kAdaptive, kFixed };

struct ShotDetectorOptions {
  /// Signature bins per channel: a power of two in [1, 256]
  /// (IsValidBinCount), which keeps the fixed-point signature exact.
  int bins_per_channel = 8;
  /// Trilinear soft binning: keeps smooth illumination ramps from jumping
  /// histogram bins (which a hard-binned signature reads as a cut).
  bool soft_binning = true;
  HistogramMetric metric = HistogramMetric::kChiSquare;
  ThresholdMode threshold_mode = ThresholdMode::kAdaptive;
  /// Fixed threshold (kFixed) or minimum absolute distance floor
  /// (kAdaptive) — suppresses spurious cuts in near-static video.
  double fixed_threshold = 0.25;
  /// Adaptive: cut when d > mean + k * std over the trailing window.
  double adaptive_k = 6.0;
  int adaptive_window = 24;
  /// Two cuts closer than this many frames are merged (debounce for
  /// fades, which raise several consecutive distances).
  int min_shot_length = 5;
};

/// A detected transition: the new shot starts at `frame`.
struct ShotBoundary {
  int frame = 0;     ///< first frame of the new shot
  double score = 0;  ///< histogram distance that triggered the cut
};

/// Detects shot boundaries over a whole source.
class ShotBoundaryDetector {
 public:
  explicit ShotBoundaryDetector(ShotDetectorOptions options = {})
      : options_(options) {}

  /// Runs over all frames of `source` and returns the boundaries (frame 0
  /// is never reported; an empty result means one single shot).
  Result<std::vector<ShotBoundary>> Detect(VideoSource* source) const;

  /// Same, over precomputed per-frame signatures.
  std::vector<ShotBoundary> DetectFromHistograms(
      const std::vector<Histogram>& signatures) const;

  /// Per-frame signature used by this detector.
  Histogram Signature(const ImageRgb& frame) const;

  const ShotDetectorOptions& options() const { return options_; }

 private:
  ShotDetectorOptions options_;
};

/// Converts boundaries into contiguous shots covering [0, num_frames).
std::vector<Shot> BoundariesToShots(const std::vector<ShotBoundary>& cuts,
                                    int num_frames);

}  // namespace dievent

#endif  // DIEVENT_VIDEO_SHOT_DETECTION_H_
