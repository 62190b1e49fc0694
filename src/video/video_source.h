/// \file video_source.h
/// Frame-addressable video sources. The synthetic source plays the role of
/// the paper's recorded surveillance streams; the interface would equally
/// sit in front of a file decoder.
///
/// MultiCameraSource is the acquisition platform's synchronization point.
/// Real capture hardware degrades — frames drop, links flap, cameras die,
/// sources stall — so a synchronized read returns a per-camera
/// SynchronizedFrameSet with health flags rather than all-or-nothing,
/// governed by one fixed AcquisitionPolicy (retry budget, hold-last-good
/// fallback, quorum, a per-camera circuit breaker with a constant
/// readmission cooldown, and one wall-clock read deadline shared by every
/// camera). The reads themselves are asynchronous: an AcquisitionSupervisor
/// runs one reader thread per camera, so a stalled source costs at most
/// the deadline, not the stall, and delivered timestamps are snapped to
/// the master clock.

#ifndef DIEVENT_VIDEO_VIDEO_SOURCE_H_
#define DIEVENT_VIDEO_VIDEO_SOURCE_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/backoff.h"
#include "common/result.h"
#include "image/image.h"
#include "video/clock_resync.h"

namespace dievent {

class AcquisitionSupervisor;
class VirtualClock;  // common/clock.h

/// One decoded frame.
struct VideoFrame {
  int index = 0;
  double timestamp_s = 0.0;
  ImageRgb image;
};

/// Random-access video stream.
class VideoSource {
 public:
  virtual ~VideoSource() = default;

  virtual int NumFrames() const = 0;
  virtual double Fps() const = 0;

  /// Decodes frame `index`. OutOfRange for indices outside [0, NumFrames).
  virtual Result<VideoFrame> GetFrame(int index) = 0;

  /// Best-effort cancellation of a GetFrame blocked in another thread
  /// (the supervisor's watchdog uses this to un-wedge a stalled reader).
  /// Must be thread-safe and non-blocking. Default: no-op — a source that
  /// ignores it simply cannot be un-wedged before its read returns.
  virtual void Interrupt() {}
};

/// How one camera's slot in a synchronized read was filled.
enum class CameraFrameStatus {
  kFresh,        ///< decoded on the first attempt
  kRetried,      ///< decoded within the retry budget
  kHeld,         ///< read failed; last good frame substituted
  kMissing,      ///< read failed and no usable fallback
  kQuarantined,  ///< circuit breaker open; camera not read at all
};

/// One camera's contribution to a synchronized frame set.
struct CameraFrame {
  CameraFrameStatus status = CameraFrameStatus::kMissing;
  /// Valid when usable(); for kHeld this is the last good frame (its
  /// `index` names the frame it was decoded from, not the requested one).
  VideoFrame frame;
  /// The failure that produced a non-usable or held slot.
  Status error;

  bool usable() const {
    return status == CameraFrameStatus::kFresh ||
           status == CameraFrameStatus::kRetried ||
           status == CameraFrameStatus::kHeld;
  }
  bool fresh() const {
    return status == CameraFrameStatus::kFresh ||
           status == CameraFrameStatus::kRetried;
  }
};

/// The per-camera outcome of one synchronized read.
struct SynchronizedFrameSet {
  int frame_index = 0;
  std::vector<CameraFrame> cameras;
  /// Cameras whose circuit breaker was open or probing *after* this set's
  /// outcomes were folded — a per-set snapshot of QuarantinedCameras().
  /// Consumers of prefetched sets must use this instead of querying the
  /// source, whose live state may already reflect later frames.
  std::vector<int> quarantined_after;

  int NumUsable() const;
  int NumFresh() const;
  /// Every camera delivered a first-attempt or retried decode.
  bool FullyHealthy() const { return NumFresh() == NumCameras(); }
  int NumCameras() const { return static_cast<int>(cameras.size()); }
};

/// Degradation behavior of the synchronized acquisition path.
struct AcquisitionPolicy {
  /// Extra read attempts per camera per frame after a failed first read.
  int retry_budget = 1;
  /// Minimum usable cameras for a frame set to be analyzable. Callers
  /// (e.g. the pipeline) skip sets below quorum.
  int min_camera_quorum = 1;
  /// On failure, substitute the camera's last good frame (instead of
  /// reporting the slot missing) when it is at most `max_held_age` frames
  /// old. false = a failed camera is simply absent from the set.
  bool hold_last_good = true;
  int max_held_age = 5;
  /// Circuit breaker: after this many consecutive failed frames the camera
  /// is quarantined (not read at all).
  int quarantine_after = 3;
  /// A quarantined camera is probed again after this many frames
  /// (half-open state); a successful probe readmits it. 0 = never readmit.
  int readmit_after = 30;
  /// Consecutive below-quorum frame sets a caller should tolerate before
  /// declaring the event unanalyzable.
  int max_consecutive_below_quorum = 25;

  // --- async supervisor (PR 2) ------------------------------------------
  /// Wall-clock budget for one synchronized read, seconds. A camera that
  /// does not answer in time becomes an ordinary failed read (absorbed by
  /// hold-last-good / the breaker). 0 = unbounded: identical outcomes to
  /// the old synchronous path, stalls included. A reader busy past
  /// 4 x this is interrupted and restarted by the watchdog (no watchdog
  /// when unbounded).
  double read_deadline_s = 0.0;
  /// Pacing of retries inside one read (exponential, deterministic
  /// jitter); sleeps never extend past the read deadline.
  BackoffPolicy retry_backoff;
  /// Snap fresh frames' timestamps to the master clock (index / fps),
  /// correcting injected or real encoder clock jitter.
  bool resync_timestamps = true;

  // --- injectable timing (PR 5) -----------------------------------------
  /// Time source for every acquisition timing decision (deadline,
  /// watchdog, backoff). Null = the real steady clock. Must outlive the
  /// source; tests inject a SimClock for deterministic timing.
  VirtualClock* clock = nullptr;
};

/// Per-camera acquisition health, maintained across GetFrames calls.
struct CameraHealth {
  /// Circuit-breaker state machine: kClosed (healthy) -> kOpen
  /// (quarantined after `quarantine_after` consecutive failures) ->
  /// kHalfOpen (probing every `readmit_after` frames) -> kClosed again
  /// on a successful probe.
  enum class Breaker { kClosed, kOpen, kHalfOpen };

  Breaker breaker = Breaker::kClosed;
  int consecutive_failures = 0;
  int quarantined_at_frame = -1;  ///< frame index that opened the breaker
  /// The camera's latest fresh or retried frame, the source of held
  /// slots. Stays empty when the policy's hold_last_good is false: nothing
  /// would read it, so no good read pays for the copy.
  std::optional<VideoFrame> last_good;

  // Lifetime tallies for degradation reporting.
  long long failures = 0;      ///< failed frames (after retries)
  long long retries = 0;       ///< extra attempts spent
  long long held = 0;          ///< slots filled from last_good
  int quarantine_events = 0;   ///< breaker openings
  int readmissions = 0;        ///< successful half-open probes
};

/// A set of per-camera sources sharing one clock — the paper's synchronized
/// multi-camera recording.
class MultiCameraSource {
 public:
  /// All sources must agree on frame count and fps (fps compared with a
  /// small relative tolerance; real encoders report e.g. 25.0 vs
  /// 25.000001). The policy governs degradation during GetFrames.
  static Result<MultiCameraSource> Create(
      std::vector<std::unique_ptr<VideoSource>> sources,
      AcquisitionPolicy policy = {});

  ~MultiCameraSource();
  MultiCameraSource(MultiCameraSource&&) noexcept;
  MultiCameraSource& operator=(MultiCameraSource&&) noexcept;

  int NumCameras() const { return static_cast<int>(sources_.size()); }
  int NumFrames() const { return num_frames_; }
  double Fps() const { return fps_; }
  const AcquisitionPolicy& policy() const { return policy_; }

  /// Reads the synchronized frame `index` from every camera concurrently
  /// (one supervisor reader per camera), applying the policy: per-read
  /// deadline, backoff-paced retries, hold-last-good fallback, and the
  /// per-camera circuit breaker. Always returns a set for a valid index —
  /// per-camera failures are reported in the slots, not as an error.
  /// OutOfRange only for indices outside [0, NumFrames).
  Result<SynchronizedFrameSet> GetFrames(int index);

  VideoSource& source(int camera) { return *sources_.at(camera); }
  const CameraHealth& health(int camera) const {
    return health_.at(camera);
  }
  /// Per-camera clock re-sync state and statistics.
  const TimestampResampler& resampler(int camera) const {
    return resamplers_.at(camera);
  }
  /// Mechanism-level reader statistics (deadline misses, watchdog
  /// restarts, queue depths). Null until the first GetFrames call.
  const AcquisitionSupervisor* supervisor() const {
    return supervisor_.get();
  }
  /// Cameras whose circuit breaker is currently open or probing.
  std::vector<int> QuarantinedCameras() const;

  /// Starts the prefetch pump: a dedicated thread runs the *identical*
  /// admission -> concurrent read -> fold sequence for frame indices
  /// `start_index`, `start_index + stride`, ... ahead of the consumer,
  /// keeping at most `depth` folded frame sets buffered (backpressure
  /// blocks the pump, bounding memory and run-ahead). At most depth + 2
  /// sets are read and not yet returned by GetFrames: `depth` queued, one
  /// folded set waiting for room, and the one being read. The pipeline
  /// passes max(1, prefetch_depth - window), because its window of
  /// in-flight frames already holds the rest of the read-ahead
  /// (PlanReadAhead in core/pipeline.h): one set with a pool,
  /// max(1, prefetch_depth - 1) inline. GetFrames then pops
  /// the next buffered set instead of dispatching, so acquisition —
  /// decode, retries, deadline waits, breaker bookkeeping — overlaps the
  /// caller's analysis while producing byte-identical sets, health state,
  /// and statistics to the synchronous path. The consumer must request
  /// exactly the pump's index sequence. The object must not be moved
  /// while the pump runs; health()/resampler()/supervisor() reflect the
  /// pump's run-ahead until StopPrefetch() joins it.
  Status StartPrefetch(int start_index, int stride, int depth);

  /// Stops and joins the pump; buffered sets are discarded. Idempotent.
  /// Establishes happens-before for health()/resampler()/supervisor().
  void StopPrefetch();

  bool prefetching() const { return pump_ != nullptr; }

 private:
  struct PumpState;  // defined in video_source.cc

  MultiCameraSource();

  /// Spawns the reader threads on first use, so a freshly Created (and
  /// possibly moved) source carries no running threads.
  void EnsureSupervisor();
  /// Phase 1 of a synchronized read: per-camera breaker decisions — how
  /// many attempts each reader may spend (0 = skip, quarantined).
  void DecideAdmission(int index, SynchronizedFrameSet* set,
                       std::vector<int>* attempts,
                       std::vector<bool>* probing);
  /// One full synchronized read (admission, concurrent read, fold); the
  /// body GetFrames runs inline and the pump runs ahead.
  SynchronizedFrameSet ReadSet(int index);
  /// Copies each fresh or retried slot of a folded set into its camera's
  /// last_good (a no-op unless the policy holds last good frames). Must
  /// run before the set is handed to the consumer and before the next
  /// set's fold; the pump runs it while the next set's reads are out.
  void CaptureLastGood(const SynchronizedFrameSet& set);
  void PumpLoop();
  /// Blocks until the queue has room, then hands `set` to the consumer.
  /// Returns false if StopPrefetch was requested.
  bool PumpPush(SynchronizedFrameSet set);
  std::vector<std::unique_ptr<VideoSource>> sources_;
  std::vector<CameraHealth> health_;
  std::vector<TimestampResampler> resamplers_;
  AcquisitionPolicy policy_;
  int num_frames_ = 0;
  double fps_ = 0.0;
  /// Declared last: destroyed first, so readers stop before sources die.
  /// (The pump is joined explicitly in the destructor before either.)
  std::unique_ptr<AcquisitionSupervisor> supervisor_;
  std::unique_ptr<PumpState> pump_;
};

/// An in-memory source over pre-rendered frames; useful in tests.
class MemoryVideoSource : public VideoSource {
 public:
  MemoryVideoSource(std::vector<ImageRgb> frames, double fps)
      : frames_(std::move(frames)), fps_(fps) {}

  int NumFrames() const override { return static_cast<int>(frames_.size()); }
  double Fps() const override { return fps_; }
  Result<VideoFrame> GetFrame(int index) override;

 private:
  std::vector<ImageRgb> frames_;
  double fps_;
};

}  // namespace dievent

#endif  // DIEVENT_VIDEO_VIDEO_SOURCE_H_
