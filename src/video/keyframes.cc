#include "video/keyframes.h"

namespace dievent {

std::vector<int> ExtractKeyFrames(const std::vector<Histogram>& signatures,
                                  const Shot& shot,
                                  const KeyFrameOptions& options) {
  std::vector<int> keys;
  if (shot.Length() <= 0 ||
      shot.end_frame > static_cast<int>(signatures.size())) {
    return keys;
  }
  keys.push_back(shot.begin_frame);
  const Histogram* current = &signatures[shot.begin_frame];
  for (int i = shot.begin_frame + 1; i < shot.end_frame; ++i) {
    if (options.max_key_frames_per_shot > 0 &&
        static_cast<int>(keys.size()) >= options.max_key_frames_per_shot) {
      break;
    }
    if (ChiSquareDistance(*current, signatures[i]) >
        options.drift_threshold) {
      keys.push_back(i);
      current = &signatures[i];
    }
  }
  return keys;
}

Result<std::vector<int>> ExtractKeyFrames(VideoSource* source,
                                          const Shot& shot,
                                          const KeyFrameOptions& options) {
  DIEVENT_RETURN_NOT_OK(ValidateBinCount(options.bins_per_channel,
                                         "key_frames.bins_per_channel"));
  if (shot.begin_frame < 0 || shot.end_frame > source->NumFrames()) {
    return Status::OutOfRange("shot exceeds source bounds");
  }
  std::vector<Histogram> sigs(source->NumFrames());
  for (int i = shot.begin_frame; i < shot.end_frame; ++i) {
    DIEVENT_ASSIGN_OR_RETURN(VideoFrame f, source->GetFrame(i));
    sigs[i] = ComputeColorHistogram(f.image, options.bins_per_channel);
  }
  return ExtractKeyFrames(sigs, shot, options);
}

}  // namespace dievent
