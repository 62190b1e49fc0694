#include "video/clock_resync.h"

#include <algorithm>
#include <cmath>

#include "video/video_source.h"

namespace dievent {

namespace {
/// Deviations below a nanosecond are float noise, not clock jitter.
constexpr double kNoiseFloorS = 1e-9;
}  // namespace

double TimestampResampler::Align(int index, VideoFrame* frame) {
  if (period_s_ <= 0.0 || frame == nullptr) return 0.0;
  ++stats_.frames_seen;

  const double master = index * period_s_;
  const double jitter = frame->timestamp_s - master;
  const double abs_jitter = std::abs(jitter);
  stats_.max_jitter_s = std::max(stats_.max_jitter_s, abs_jitter);
  stats_.sum_abs_jitter_s += abs_jitter;
  stats_.drift_estimate_s += drift_alpha_ * (jitter - stats_.drift_estimate_s);
  if (abs_jitter <= kNoiseFloorS) return 0.0;

  // Snap to the nearest master tick. Within half a period that is the
  // requested frame's own tick, so the correction is exact; beyond it the
  // camera clock is at least one frame off and we record a misalignment.
  const long long tick = std::llround(frame->timestamp_s / period_s_);
  if (tick != index) ++stats_.misalignments;
  frame->timestamp_s = static_cast<double>(tick) * period_s_;
  ++stats_.corrections;
  stats_.max_residual_s = std::max(
      stats_.max_residual_s, std::abs(frame->timestamp_s - master));
  return jitter;
}

}  // namespace dievent
