#include "video/video_source.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/spsc_queue.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "video/acquisition_supervisor.h"

namespace dievent {

/// Prefetch pump state. Although the ring is SPSC, both endpoints access
/// it under `mutex` (the blocking handshake needs the occupancy check and
/// the push/pop to be atomic with the stop/done flags), so the queue is
/// annotated as guarded. `depth` is enforced with an explicit size check
/// because SpscQueue rounds its capacity up to a power of two.
struct MultiCameraSource::PumpState {
  explicit PumpState(int depth_in)
      : depth(depth_in), queue(static_cast<size_t>(depth_in)) {}

  const int depth;
  int next_index = 0;  ///< set before the pump thread starts
  int stride = 1;      ///< set before the pump thread starts
  Mutex mutex{LockRank::kPrefetchPump};
  SpscQueue<SynchronizedFrameSet> queue GUARDED_BY(mutex);
  CondVar produced;  ///< pump -> consumer: a set is ready
  CondVar consumed;  ///< consumer -> pump: room freed / stop
  bool stop GUARDED_BY(mutex) = false;
  bool done GUARDED_BY(mutex) = false;  ///< index range exhausted; exited
  /// Spawned by StartPrefetch, joined by StopPrefetch (control thread
  /// only); the pump thread never touches its own handle.
  std::thread thread;
};

int SynchronizedFrameSet::NumUsable() const {
  int n = 0;
  for (const CameraFrame& c : cameras) n += c.usable() ? 1 : 0;
  return n;
}

int SynchronizedFrameSet::NumFresh() const {
  int n = 0;
  for (const CameraFrame& c : cameras) n += c.fresh() ? 1 : 0;
  return n;
}

MultiCameraSource::MultiCameraSource() = default;
MultiCameraSource::~MultiCameraSource() { StopPrefetch(); }
MultiCameraSource::MultiCameraSource(MultiCameraSource&&) noexcept = default;
MultiCameraSource& MultiCameraSource::operator=(MultiCameraSource&&) noexcept =
    default;

Result<MultiCameraSource> MultiCameraSource::Create(
    std::vector<std::unique_ptr<VideoSource>> sources,
    AcquisitionPolicy policy) {
  if (sources.empty()) {
    return Status::InvalidArgument("need at least one camera source");
  }
  if (policy.retry_budget < 0 || policy.min_camera_quorum < 1 ||
      policy.quarantine_after < 1) {
    return Status::InvalidArgument(
        "acquisition policy: retry_budget must be >= 0, "
        "min_camera_quorum and quarantine_after must be >= 1");
  }
  if (policy.read_deadline_s < 0) {
    return Status::InvalidArgument(
        "acquisition policy: read_deadline_s must be >= 0");
  }
  const int frames = sources[0]->NumFrames();
  const double fps = sources[0]->Fps();
  for (size_t i = 1; i < sources.size(); ++i) {
    if (sources[i]->NumFrames() != frames) {
      return Status::InvalidArgument(StrFormat(
          "camera %zu is not synchronized: %d frames vs %d on camera 0", i,
          sources[i]->NumFrames(), frames));
    }
    // Exact == on fps would reject streams whose containers report the
    // same nominal rate with encoder rounding (25.0 vs 25.000001).
    const double fps_i = sources[i]->Fps();
    if (std::abs(fps_i - fps) > 1e-6 * std::max(1.0, std::abs(fps))) {
      return Status::InvalidArgument(StrFormat(
          "camera %zu is not synchronized: %.9g fps vs %.9g fps on "
          "camera 0",
          i, fps_i, fps));
    }
  }
  MultiCameraSource out;
  out.sources_ = std::move(sources);
  out.health_.resize(out.sources_.size());
  out.resamplers_.assign(out.sources_.size(), TimestampResampler(fps));
  out.policy_ = policy;
  out.num_frames_ = frames;
  out.fps_ = fps;
  return out;
}

std::vector<int> MultiCameraSource::QuarantinedCameras() const {
  std::vector<int> out;
  for (size_t c = 0; c < health_.size(); ++c) {
    if (health_[c].breaker != CameraHealth::Breaker::kClosed) {
      out.push_back(static_cast<int>(c));
    }
  }
  return out;
}

void MultiCameraSource::EnsureSupervisor() {
  if (supervisor_) return;
  std::vector<VideoSource*> raw;
  raw.reserve(sources_.size());
  for (const auto& s : sources_) raw.push_back(s.get());
  SupervisorOptions options;
  options.read_deadline_s = policy_.read_deadline_s;
  options.backoff = policy_.retry_backoff;
  options.clock = policy_.clock;
  supervisor_ =
      std::make_unique<AcquisitionSupervisor>(std::move(raw), options);
}

void MultiCameraSource::DecideAdmission(int index, SynchronizedFrameSet* set,
                                        std::vector<int>* attempts,
                                        std::vector<bool>* probing) {
  attempts->assign(sources_.size(), 0);
  probing->assign(sources_.size(), false);
  for (size_t c = 0; c < sources_.size(); ++c) {
    CameraHealth& health = health_[c];
    CameraFrame& slot = set->cameras[c];

    // Circuit breaker: an open camera is skipped entirely until the
    // readmit_after cooldown elapses, then probed once (half-open).
    if (health.breaker == CameraHealth::Breaker::kOpen) {
      const int cooldown = policy_.readmit_after;  // 0 = never readmit
      const bool cooldown_over =
          cooldown > 0 && index - health.quarantined_at_frame >= cooldown;
      if (!cooldown_over) {
        slot.status = CameraFrameStatus::kQuarantined;
        slot.error = Status::FailedPrecondition(StrFormat(
            "camera %zu quarantined since frame %d (%d consecutive "
            "failures)",
            c, health.quarantined_at_frame, health.consecutive_failures));
        continue;
      }
      health.breaker = CameraHealth::Breaker::kHalfOpen;
    }
    (*probing)[c] = health.breaker == CameraHealth::Breaker::kHalfOpen;
    // A probe gets a single attempt; a healthy camera gets the budget.
    (*attempts)[c] = (*probing)[c] ? 1 : 1 + policy_.retry_budget;
  }
}

namespace {

/// Phase 3 of a synchronized read: fold each camera's outcome back into
/// breaker/hold-last-good state. A free function taking the pieces
/// explicitly (rather than a member) because the supervisor's nested
/// ReadOutcome type cannot appear in video_source.h — the headers would
/// be circular. It reads `last_good` for a failed camera but never writes
/// it: MultiCameraSource::CaptureLastGood does that copy afterwards.
void FoldOutcomes(const AcquisitionPolicy& policy, int index,
                  const std::vector<int>& attempts,
                  const std::vector<bool>& probing,
                  std::vector<AcquisitionSupervisor::ReadOutcome>* outcomes,
                  std::vector<CameraHealth>* health_states,
                  std::vector<TimestampResampler>* resamplers,
                  SynchronizedFrameSet* set) {
  for (size_t c = 0; c < health_states->size(); ++c) {
    if (attempts[c] <= 0) continue;
    CameraHealth& health = (*health_states)[c];
    CameraFrame& slot = set->cameras[c];
    AcquisitionSupervisor::ReadOutcome& outcome = (*outcomes)[c];

    health.retries += outcome.retry_failures;

    if (outcome.ok()) {
      slot.frame = std::move(*outcome.frame);
      if (policy.resync_timestamps) {
        (*resamplers)[c].Align(index, &slot.frame);
      }
      slot.status = outcome.attempts_used > 1 ? CameraFrameStatus::kRetried
                                              : CameraFrameStatus::kFresh;
      if (probing[c]) {
        ++health.readmissions;
        health.quarantined_at_frame = -1;
      }
      health.breaker = CameraHealth::Breaker::kClosed;
      health.consecutive_failures = 0;
      continue;
    }

    // All attempts failed (or the camera missed the deadline, which the
    // policy treats identically).
    ++health.failures;
    ++health.consecutive_failures;
    slot.error = outcome.deadline_missed
                     ? outcome.error  // already names camera and frame
                     : outcome.error.WithContext(
                           StrFormat("camera %zu frame %d", c, index));

    if (probing[c]) {
      // Failed probe: back to open, cooldown restarts from this frame.
      health.breaker = CameraHealth::Breaker::kOpen;
      health.quarantined_at_frame = index;
      slot.status = CameraFrameStatus::kQuarantined;
      continue;
    }
    if (health.consecutive_failures >= policy.quarantine_after) {
      health.breaker = CameraHealth::Breaker::kOpen;
      health.quarantined_at_frame = index;
      ++health.quarantine_events;
      slot.status = CameraFrameStatus::kQuarantined;
      continue;
    }
    if (policy.hold_last_good && health.last_good.has_value() &&
        index - health.last_good->index <= policy.max_held_age) {
      slot.frame = *health.last_good;
      slot.status = CameraFrameStatus::kHeld;
      ++health.held;
    } else {
      slot.status = CameraFrameStatus::kMissing;
    }
  }
  set->quarantined_after.clear();
  for (size_t c = 0; c < health_states->size(); ++c) {
    if ((*health_states)[c].breaker != CameraHealth::Breaker::kClosed) {
      set->quarantined_after.push_back(static_cast<int>(c));
    }
  }
}

}  // namespace

void MultiCameraSource::CaptureLastGood(const SynchronizedFrameSet& set) {
  if (!policy_.hold_last_good) return;  // nothing would ever read the copy
  for (size_t c = 0; c < set.cameras.size(); ++c) {
    const CameraFrame& slot = set.cameras[c];
    if (slot.fresh()) health_[c].last_good = slot.frame;
  }
}

SynchronizedFrameSet MultiCameraSource::ReadSet(int index) {
  SynchronizedFrameSet set;
  set.frame_index = index;
  set.cameras.resize(sources_.size());

  std::vector<int> attempts;
  std::vector<bool> probing;
  DecideAdmission(index, &set, &attempts, &probing);

  // Phase 2: one concurrent deadline-bounded read across all admitted
  // cameras. With read_deadline_s == 0 this blocks exactly as long as the
  // slowest camera — the old synchronous behavior.
  std::vector<AcquisitionSupervisor::ReadOutcome> outcomes =
      supervisor_->Read(index, attempts);

  FoldOutcomes(policy_, index, attempts, probing, &outcomes, &health_,
               &resamplers_, &set);
  CaptureLastGood(set);
  return set;
}

Status MultiCameraSource::StartPrefetch(int start_index, int stride,
                                        int depth) {
  if (pump_) return Status::FailedPrecondition("prefetch already running");
  if (depth < 1 || stride < 1) {
    return Status::InvalidArgument(
        "prefetch depth and stride must be >= 1");
  }
  if (start_index < 0 || start_index >= num_frames_) {
    return Status::OutOfRange(StrFormat(
        "prefetch start %d outside [0, %d)", start_index, num_frames_));
  }
  pump_ = std::make_unique<PumpState>(depth);
  pump_->next_index = start_index;
  pump_->stride = stride;
  // The pump thread becomes the supervisor's control thread; release the
  // checked control role before it spawns (externally synchronized: the
  // new thread does not exist yet).
  if (supervisor_) supervisor_->ReleaseControl();
  pump_->thread = std::thread(&MultiCameraSource::PumpLoop, this);
  return Status::OK();
}

void MultiCameraSource::StopPrefetch() {
  if (!pump_) return;
  {
    MutexLock lock(pump_->mutex);
    pump_->stop = true;
  }
  pump_->consumed.NotifyAll();
  if (pump_->thread.joinable()) pump_->thread.join();
  pump_.reset();
  // Control returns to whichever thread drives GetFrames next (the pump
  // thread is joined, so the handoff is externally synchronized).
  if (supervisor_) supervisor_->ReleaseControl();
}

bool MultiCameraSource::PumpPush(SynchronizedFrameSet set) {
  MutexLock lock(pump_->mutex);
  while (!pump_->stop &&
         pump_->queue.SizeApprox() >= static_cast<size_t>(pump_->depth)) {
    pump_->consumed.Wait(pump_->mutex);
  }
  if (pump_->stop) return false;
  // Sole producer below the depth bound: room is certain.
  DIEVENT_CHECK(pump_->queue.TryPush(std::move(set)));
  pump_->produced.NotifyOne();
  return true;
}

void MultiCameraSource::PumpLoop() {
  EnsureSupervisor();
  // Exactly the sequential ReadSet sequence, one frame ahead: the
  // last-good capture and the push of the previous (folded) set — the
  // push may block on backpressure — overlap the wall-clock window the
  // supervisor's readers spend on this frame. The capture still precedes
  // both the push (after which the consumer may move the set's images)
  // and this frame's fold (the only reader of last_good).
  std::optional<SynchronizedFrameSet> ready;
  for (int index = pump_->next_index; index < num_frames_;
       index += pump_->stride) {
    SynchronizedFrameSet set;
    set.frame_index = index;
    set.cameras.resize(sources_.size());
    std::vector<int> attempts;
    std::vector<bool> probing;
    DecideAdmission(index, &set, &attempts, &probing);
    AcquisitionSupervisor::PendingRead pending =
        supervisor_->BeginRead(index, attempts);
    if (ready.has_value()) {
      CaptureLastGood(*ready);
      if (!PumpPush(std::move(*ready))) return;
      ready.reset();
    }
    std::vector<AcquisitionSupervisor::ReadOutcome> outcomes =
        supervisor_->FinishRead(std::move(pending));
    FoldOutcomes(policy_, index, attempts, probing, &outcomes, &health_,
                 &resamplers_, &set);
    ready = std::move(set);
  }
  if (ready.has_value()) {
    CaptureLastGood(*ready);
    if (!PumpPush(std::move(*ready))) return;
  }
  {
    MutexLock lock(pump_->mutex);
    pump_->done = true;
  }
  pump_->produced.NotifyAll();
}

Result<SynchronizedFrameSet> MultiCameraSource::GetFrames(int index) {
  if (index < 0 || index >= num_frames_) {
    return Status::OutOfRange(
        StrFormat("frame %d outside [0, %d)", index, num_frames_));
  }
  if (pump_) {
    std::optional<SynchronizedFrameSet> set;
    {
      MutexLock lock(pump_->mutex);
      while (pump_->queue.SizeApprox() == 0 && !pump_->done) {
        pump_->produced.Wait(pump_->mutex);
      }
      set = pump_->queue.TryPop();
      if (set.has_value()) pump_->consumed.NotifyOne();
    }
    if (!set.has_value()) {
      return Status::Internal(StrFormat(
          "prefetch pump exhausted before frame %d was requested", index));
    }
    if (set->frame_index != index) {
      return Status::Internal(StrFormat(
          "prefetch misalignment: consumer asked for frame %d, pump "
          "produced %d (GetFrames must follow the StartPrefetch stride)",
          index, set->frame_index));
    }
    return std::move(*set);
  }
  EnsureSupervisor();
  return ReadSet(index);
}

Result<VideoFrame> MemoryVideoSource::GetFrame(int index) {
  if (index < 0 || index >= NumFrames()) {
    return Status::OutOfRange(
        StrFormat("frame %d outside [0, %d)", index, NumFrames()));
  }
  VideoFrame f;
  f.index = index;
  f.timestamp_s = index / fps_;
  f.image = frames_[index];
  return f;
}

}  // namespace dievent
