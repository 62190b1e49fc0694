/// \file clock_resync.h
/// Per-camera timestamp re-synchronization against the master clock.
///
/// The rig's cameras nominally share one clock, but real encoders stamp
/// frames with their own drifting oscillators — the fault harness models
/// this as per-frame timestamp jitter. PR 1 measured and reported the
/// jitter; this closes the loop: each delivered frame is aligned to the
/// nearest master-clock tick (frame period = 1/fps), so downstream layers
/// see one coherent timeline. Jitter below half a frame period is removed
/// exactly; larger deviations snap to the nearest tick and are counted as
/// misalignments (the camera's clock is off by at least one frame). A
/// drift EWMA of the signed deviation is reported alongside: a persistent
/// nonzero value reveals a constant encoder skew, which the snap corrects
/// frame by frame.

#ifndef DIEVENT_VIDEO_CLOCK_RESYNC_H_
#define DIEVENT_VIDEO_CLOCK_RESYNC_H_

namespace dievent {

struct VideoFrame;  // video/video_source.h (cycle: it holds resamplers)

/// Aligns one camera's frame timestamps to the master clock. Stateful
/// only in its statistics plus a drift EWMA; the correction itself is a
/// pure function of (timestamp, index, fps).
class TimestampResampler {
 public:
  struct Stats {
    long long frames_seen = 0;
    /// Frames whose timestamp deviated from the master tick (beyond a
    /// nanosecond of float noise) and were pulled back.
    long long corrections = 0;
    /// Frames more than half a period off — they snapped to a tick other
    /// than the requested frame's own.
    long long misalignments = 0;
    double max_jitter_s = 0.0;    ///< worst |deviation| before correction
    double sum_abs_jitter_s = 0.0;
    double max_residual_s = 0.0;  ///< worst |corrected - master| after
    /// EWMA of the signed deviation — a persistent nonzero value reveals
    /// constant clock skew rather than symmetric jitter.
    double drift_estimate_s = 0.0;
  };

  explicit TimestampResampler(double fps, double drift_alpha = 0.1)
      : period_s_(fps > 0 ? 1.0 / fps : 0.0), drift_alpha_(drift_alpha) {}

  /// Aligns `frame` (decoded as index `index`) to the master clock and
  /// returns the signed jitter that was removed. No-op when fps was 0.
  double Align(int index, VideoFrame* frame);

  const Stats& stats() const { return stats_; }
  double period_s() const { return period_s_; }

 private:
  double period_s_;
  double drift_alpha_;
  Stats stats_;
};

}  // namespace dievent

#endif  // DIEVENT_VIDEO_CLOCK_RESYNC_H_
