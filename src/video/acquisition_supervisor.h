/// \file acquisition_supervisor.h
/// Async per-camera acquisition with one read deadline, backoff, and a
/// watchdog.
///
/// PR 1's degradation policy still read cameras sequentially, so one
/// stalled source serialized `MultiCameraSource::GetFrames` and blocked
/// the whole frame set for as long as the stall lasted. The supervisor
/// removes that coupling: one dedicated reader thread per camera performs
/// the (possibly blocking) `VideoSource::GetFrame` calls and hands results
/// back through a bounded SPSC queue, while the caller waits at most
/// `read_deadline_s` for each synchronized read. A camera that misses the
/// deadline becomes an ordinary failed read — exactly what the existing
/// `AcquisitionPolicy` (retry budget, hold-last-good, circuit breaker,
/// quorum) already absorbs.
///
/// Reader lifecycle:
///
///   idle -> reading -> (response in time)  -> idle
///                   -> (deadline missed)   -> wedged
///   wedged --(busy > 4 x read_deadline_s)--> interrupted (`Interrupt()`)
///   interrupted reader finishes its blocking call, discards the stale
///   result, and exits; the next dispatch joins the dead thread and spawns
///   a fresh reader ("restart"), with the wedge recorded as error context.
///
/// Retries within one read are paced by `BackoffPolicy` (exponential,
/// deterministically jittered) and never sleep past the read deadline.
/// Dedicated threads — not pool workers — because readers block on I/O:
/// parking a wedged reader must never steal a worker from a healthy
/// camera.
///
/// All timing goes through an injected VirtualClock (deadline, watchdog,
/// backoff pacing), so the whole state machine runs
/// under SimClock in tests. SimClock pending-work tokens bracket every
/// unit of in-flight work so simulated time can only advance while the
/// system is genuinely blocked: the control thread holds one token from
/// BeginRead to the end of FinishRead, and each dispatched camera read
/// holds one from the instant its request becomes visible until its
/// reader has pushed (or dropped) the response. Clock-mediated waits
/// release the holder's token while blocked; notifies to clock-waited
/// condition variables go through `clock->NotifyAll` so wakeups re-credit
/// tokens atomically.

#ifndef DIEVENT_VIDEO_ACQUISITION_SUPERVISOR_H_
#define DIEVENT_VIDEO_ACQUISITION_SUPERVISOR_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/clock.h"
#include "common/spsc_queue.h"
#include "common/thread_annotations.h"
#include "common/thread_ownership.h"
#include "video/video_source.h"

namespace dievent {

/// Mechanism options. Policy (what to do with a failed slot) stays in
/// AcquisitionPolicy; the supervisor only knows how to read with a
/// deadline and when to declare a reader wedged.
struct SupervisorOptions {
  /// Wall-clock budget for one synchronized read, seconds, shared by
  /// every camera. 0 = unbounded (behaves like the old synchronous path,
  /// stalls and all). A reader busy longer than 4 x this is interrupted
  /// and restarted; unbounded reads have no watchdog.
  double read_deadline_s = 0.0;
  /// Retry pacing inside a single read.
  BackoffPolicy backoff;
  /// Time source for the deadline, watchdog and backoff pacing.
  /// Null = RealClock. Must outlive the supervisor; tests inject a
  /// SimClock for deterministic timing.
  VirtualClock* clock = nullptr;
};

/// Drives one reader thread per camera and collects deadline-bounded
/// synchronized reads. Does not own the sources.
class AcquisitionSupervisor {
 public:
  using Clock = std::chrono::steady_clock;

  /// One camera's result for one synchronized read.
  struct ReadOutcome {
    bool dispatched = false;       ///< false = caller asked to skip (0 attempts)
    bool deadline_missed = false;  ///< no response within the deadline
    std::optional<VideoFrame> frame;  ///< set on success
    Status error;                  ///< set on failure or deadline miss
    int attempts_used = 0;
    int retry_failures = 0;        ///< failed attempts after the first

    bool ok() const { return frame.has_value(); }
  };

  /// Per-camera lifetime statistics.
  struct ReaderStats {
    long long reads_completed = 0;  ///< requests the reader finished
    long long deadline_misses = 0;  ///< reads abandoned by the caller
    long long backoff_waits = 0;    ///< retry delays actually slept
    long long stale_results = 0;    ///< late responses discarded
    int watchdog_interrupts = 0;    ///< Interrupt() calls sent to the source
    int restarts = 0;               ///< wedged readers replaced
    int max_queue_depth = 0;        ///< response-queue high-water mark
    std::string last_restart_reason;
  };

  /// Spawns one reader per source. Sources must outlive the supervisor.
  AcquisitionSupervisor(std::vector<VideoSource*> sources,
                        SupervisorOptions options);

  /// Interrupts and joins every reader. A reader wedged inside a source
  /// that ignores Interrupt() blocks destruction — wrap such sources in a
  /// cancellable decorator if unbounded stalls are possible.
  ~AcquisitionSupervisor();

  AcquisitionSupervisor(const AcquisitionSupervisor&) = delete;
  AcquisitionSupervisor& operator=(const AcquisitionSupervisor&) = delete;

  int NumCameras() const { return static_cast<int>(readers_.size()); }

  /// An in-flight synchronized read: dispatched but not yet collected.
  /// Opaque to callers; obtained from BeginRead, consumed by FinishRead.
  struct PendingRead {
    int index = 0;
    long long seq = 0;
    bool bounded = false;
    Clock::time_point deadline;  ///< fixed at dispatch, all cameras
    std::vector<ReadOutcome> out;
    std::vector<bool> pending;
    size_t remaining = 0;
  };

  /// Reads frame `index` from every camera with `max_attempts[c] > 0`
  /// concurrently, waiting at most the read deadline overall. Cameras with
  /// `max_attempts[c] <= 0` are skipped (breaker open). Wedged readers are
  /// reported as immediate deadline misses and handled by the watchdog.
  std::vector<ReadOutcome> Read(int index,
                                const std::vector<int>& max_attempts);

  /// Dispatches the read without waiting. The deadline starts now, so the
  /// caller can overlap other work (the prefetch pump hands the previous
  /// frame set downstream, which may block on backpressure) with the
  /// readers' wall-clock budget. At most one read may be pending at a
  /// time; FinishRead must be called before the next BeginRead.
  PendingRead BeginRead(int index, const std::vector<int>& max_attempts);

  /// Collects a dispatched read: waits for the remaining responses up to
  /// the deadline fixed at BeginRead time, then marks stragglers as
  /// deadline misses. Read(i, a) == FinishRead(BeginRead(i, a)).
  std::vector<ReadOutcome> FinishRead(PendingRead pending);

  /// Snapshot of one camera's statistics (thread-safe).
  ReaderStats stats(int camera) const;

  /// Hands the control role (BeginRead/FinishRead and the response-queue
  /// consumer side) to another thread. Call at an externally synchronized
  /// handoff point — after joining the old control thread or before
  /// spawning the new one.
  void ReleaseControl();

  const SupervisorOptions& options() const { return options_; }

 private:
  struct ReaderRequest {
    long long seq = 0;
    int index = 0;
    int max_attempts = 1;
    double budget_s = 0.0;  ///< 0 = unbounded
  };

  struct ReaderResponse {
    long long seq = 0;
    int index = 0;
    std::optional<VideoFrame> frame;
    Status error;
    int attempts_used = 0;
    int retry_failures = 0;
  };

  /// Per-camera reader state. The mutex guards everything except the
  /// response queue (SPSC: reader pushes, supervisor pops) and `thread`/
  /// `source`/`camera`, which only the control thread touches.
  struct Reader {
    VideoSource* source = nullptr;  ///< set once before the thread spawns
    int camera = 0;                 ///< set once before the thread spawns
    /// Spawned/joined only by the control thread (SpawnReader/BeginRead/
    /// the destructor); the reader thread never touches its own handle.
    std::thread thread;
    mutable Mutex mutex{LockRank::kAcqReader};
    CondVar cv;  ///< wakes the reader: request/stop/interrupt
    std::optional<ReaderRequest> request GUARDED_BY(mutex);
    bool stop GUARDED_BY(mutex) = false;
    bool busy GUARDED_BY(mutex) = false;  ///< executing a request
    bool restart_pending GUARDED_BY(mutex) = false;  ///< watchdog: exit
    bool exited GUARDED_BY(mutex) = false;  ///< left its loop; joinable
    int busy_frame GUARDED_BY(mutex) = -1;
    Clock::time_point busy_since GUARDED_BY(mutex);
    ReaderStats stats GUARDED_BY(mutex);
    /// Lock-free SPSC ring: the reader thread is the sole producer, the
    /// control thread the sole consumer; neither side holds `mutex`.
    SpscQueue<ReaderResponse> responses;

    explicit Reader(int queue_capacity) : responses(queue_capacity) {}
  };

  void ReaderLoop(Reader* reader);
  void SpawnReader(Reader* reader);
  /// Watchdog decision for a busy reader.
  void MaybeInterruptLocked(Reader* reader, double stuck_s)
      REQUIRES(reader->mutex);

  SupervisorOptions options_;
  VirtualClock* clock_ = nullptr;  ///< never null after construction
  std::vector<std::unique_ptr<Reader>> readers_;
  /// Monotonic read ticket. Touched only by the (single) control thread
  /// driving BeginRead/FinishRead — the public contract forbids
  /// overlapping reads — so it needs no lock. The contract is checked:
  /// BeginRead/FinishRead assert control_owner_.
  long long seq_ = 0;
  ThreadOwner control_owner_{"supervisor-control"};

  /// Readers take this lock (empty critical section) before notifying, so
  /// a response can never slip between the caller's drain and its wait.
  /// No fields are guarded by it; the lock itself is the protocol.
  Mutex wait_mutex_{LockRank::kAcqWaitFence};  // lint: unguarded (notify fence; guards no data)
  CondVar responses_cv_;
};

}  // namespace dievent

#endif  // DIEVENT_VIDEO_ACQUISITION_SUPERVISOR_H_
