#include "video/parser.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace dievent {

Result<VideoStructure> VideoParser::Parse(VideoSource* source) const {
  DIEVENT_RETURN_NOT_OK(ValidateBinCount(options_.shot.bins_per_channel,
                                         "shot.bins_per_channel"));
  std::vector<Histogram> sigs;
  sigs.reserve(source->NumFrames());
  ShotBoundaryDetector detector(options_.shot);
  for (int i = 0; i < source->NumFrames(); ++i) {
    DIEVENT_ASSIGN_OR_RETURN(VideoFrame f, source->GetFrame(i));
    sigs.push_back(detector.Signature(f.image));
  }
  return ParseFromHistograms(sigs, source->Fps());
}

VideoStructure VideoParser::ParseFromSparseHistograms(
    const std::vector<std::optional<Histogram>>& sparse, double fps,
    SparseSignatureInfo* info) const {
  SparseSignatureInfo local;
  local.total = static_cast<int>(sparse.size());

  // Index every valid slot, tracking the longest run of missing ones.
  std::vector<int> valid;
  int gap = 0;
  for (int i = 0; i < local.total; ++i) {
    if (sparse[i].has_value()) {
      valid.push_back(i);
      gap = 0;
    } else {
      ++local.missing;
      local.longest_gap = std::max(local.longest_gap, ++gap);
    }
  }
  if (info != nullptr) *info = local;
  if (valid.empty()) {
    VideoStructure out;
    out.num_frames = local.total;
    out.fps = fps;
    if (info != nullptr) *info = local;
    return out;
  }

  std::vector<Histogram> dense(sparse.size());
  size_t next_valid = 0;  // first valid index >= the current slot
  for (int i = 0; i < local.total; ++i) {
    if (sparse[i].has_value()) {
      dense[i] = *sparse[i];
      continue;
    }
    while (next_valid < valid.size() && valid[next_valid] < i) ++next_valid;
    const bool has_prev = next_valid > 0;
    const bool has_next = next_valid < valid.size();
    if (has_prev && has_next) {
      // Interior gap: interpolate between the bracketing signatures so the
      // inter-frame distance ramps smoothly across the gap instead of
      // concentrating in one spurious jump.
      const int lo = valid[next_valid - 1];
      const int hi = valid[next_valid];
      const double w = static_cast<double>(i - lo) / (hi - lo);
      const Histogram& a = *sparse[lo];
      const Histogram& b = *sparse[hi];
      Histogram h;
      h.bins.resize(a.bins.size());
      for (size_t k = 0; k < a.bins.size(); ++k) {
        const double bk = k < b.bins.size() ? b.bins[k] : 0.0;
        h.bins[k] = (1.0 - w) * a.bins[k] + w * bk;
      }
      dense[i] = std::move(h);
      ++local.interpolated;
    } else {
      // Leading/trailing gap: clamp to the nearest valid signature.
      dense[i] = *sparse[valid[has_prev ? next_valid - 1 : 0]];
      ++local.extrapolated;
    }
  }
  if (info != nullptr) *info = local;
  return ParseFromHistograms(dense, fps);
}

VideoStructure VideoParser::ParseFromHistograms(
    const std::vector<Histogram>& sigs, double fps) const {
  VideoStructure out;
  out.num_frames = static_cast<int>(sigs.size());
  out.fps = fps;
  if (sigs.empty()) return out;

  ShotBoundaryDetector detector(options_.shot);
  std::vector<ShotBoundary> cuts = detector.DetectFromHistograms(sigs);
  std::vector<Shot> shots = BoundariesToShots(cuts, out.num_frames);
  for (Shot& shot : shots) {
    shot.key_frames = ExtractKeyFrames(sigs, shot, options_.key_frames);
  }
  out.scenes = SegmentScenes(shots, sigs, options_.scenes);
  return out;
}

}  // namespace dievent
