#include "video/shot_detection.h"

#include <cmath>
#include <deque>

namespace dievent {

Histogram ShotBoundaryDetector::Signature(const ImageRgb& frame) const {
  return ComputeColorHistogram(frame, options_.bins_per_channel,
                               options_.soft_binning);
}

Result<std::vector<ShotBoundary>> ShotBoundaryDetector::Detect(
    VideoSource* source) const {
  DIEVENT_RETURN_NOT_OK(
      ValidateBinCount(options_.bins_per_channel, "shot.bins_per_channel"));
  std::vector<Histogram> sigs;
  sigs.reserve(source->NumFrames());
  for (int i = 0; i < source->NumFrames(); ++i) {
    DIEVENT_ASSIGN_OR_RETURN(VideoFrame f, source->GetFrame(i));
    sigs.push_back(Signature(f.image));
  }
  return DetectFromHistograms(sigs);
}

std::vector<ShotBoundary> ShotBoundaryDetector::DetectFromHistograms(
    const std::vector<Histogram>& sigs) const {
  std::vector<ShotBoundary> cuts;
  if (sigs.size() < 2) return cuts;

  // Consecutive-frame distances; d[i] is the distance from frame i-1 to i.
  std::vector<double> d(sigs.size(), 0.0);
  for (size_t i = 1; i < sigs.size(); ++i) {
    d[i] = options_.metric == HistogramMetric::kChiSquare
               ? ChiSquareDistance(sigs[i - 1], sigs[i])
               : L1Distance(sigs[i - 1], sigs[i]);
  }

  std::deque<double> window;
  double sum = 0.0, sum2 = 0.0;
  int last_cut = -options_.min_shot_length;
  for (size_t i = 1; i < sigs.size(); ++i) {
    bool is_cut = false;
    if (options_.threshold_mode == ThresholdMode::kFixed) {
      is_cut = d[i] > options_.fixed_threshold;
    } else {
      if (static_cast<int>(window.size()) >= 2) {
        double n = static_cast<double>(window.size());
        double mean = sum / n;
        double var = std::max(0.0, sum2 / n - mean * mean);
        double thresh = mean + options_.adaptive_k * std::sqrt(var);
        is_cut = d[i] > thresh && d[i] > options_.fixed_threshold;
      } else {
        is_cut = d[i] > options_.fixed_threshold;
      }
    }
    if (is_cut && static_cast<int>(i) - last_cut >=
                      options_.min_shot_length) {
      cuts.push_back(ShotBoundary{static_cast<int>(i), d[i]});
      last_cut = static_cast<int>(i);
      // Reset the statistics window across the boundary: the new shot has
      // its own distance regime.
      window.clear();
      sum = sum2 = 0.0;
      continue;
    }
    window.push_back(d[i]);
    sum += d[i];
    sum2 += d[i] * d[i];
    if (static_cast<int>(window.size()) > options_.adaptive_window) {
      double old = window.front();
      window.pop_front();
      sum -= old;
      sum2 -= old * old;
    }
  }
  return cuts;
}

std::vector<Shot> BoundariesToShots(const std::vector<ShotBoundary>& cuts,
                                    int num_frames) {
  std::vector<Shot> shots;
  int begin = 0;
  for (const ShotBoundary& c : cuts) {
    if (c.frame <= begin || c.frame >= num_frames) continue;
    shots.push_back(Shot{begin, c.frame, {}});
    begin = c.frame;
  }
  if (begin < num_frames) shots.push_back(Shot{begin, num_frames, {}});
  return shots;
}

}  // namespace dievent
