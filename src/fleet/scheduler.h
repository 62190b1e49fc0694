/// \file scheduler.h
/// Multi-tenant event scheduler: N admitted event jobs, up to M running
/// concurrently, with per-tenant fault bulkheads, admission control, and
/// overload shedding.
///
/// Topology. The scheduler owns one dispatcher thread and M runner
/// threads, and keeps one queue: the pending list under its mutex. A
/// free runner takes the best dispatchable job from it itself (priority
/// order, FIFO within a priority, kLow skipped while deferral holds),
/// runs one attempt to completion, and comes back for the next; with
/// nothing dispatchable it parks until an admission, a retry promotion
/// or a finished attempt may have changed that. A job therefore waits
/// as kPending until the instant a runner is free to start it, so
/// priority and deferral decide every start. The dispatcher keeps only
/// the timed work: promoting retries and firing watchdogs.
///
/// Bulkheads. Each job owns its pipeline, durable-store directory, and
/// error budget (EventJobSpec). A failed attempt — pipeline error,
/// wedged store, exhausted acquisition quorum, watchdog interrupt —
/// quarantines only that job: it re-enters the rotation after a capped
/// exponential backoff (BackoffPolicy; delays are a pure function of
/// (attempt, job id), so retry instants replay exactly), or is parked
/// once its budget is spent. Healthy tenants keep draining throughout;
/// because each attempt reopens the store, a parked-then-inspected or
/// retried tenant resumes from its last durable checkpoint via the
/// commit-marker protocol.
///
/// Admission control and shedding. Submit() is the admission point: when
/// the waiting population reaches `shed_waiting_above`, kLow submissions
/// are shed outright (recorded, never run). The load controller also
/// samples per-frame commit latency into P² quantile estimators
/// (per-job and fleet-wide); while the fleet quantile exceeds
/// `defer_latency_above_s` *and* load exists (something is running),
/// dispatch defers kLow jobs — they run when the fleet drains, so
/// deferral can never livelock an otherwise idle scheduler.
///
/// Watchdog. A job that stops committing frames for
/// `watchdog_deadline_s` (wedged I/O, a stuck stage) is interrupted:
/// the dispatcher trips the job's CancellationToken, the pipeline
/// unwinds at the next frame boundary with the store on its happy path,
/// and the attempt is treated as failed — backoff, then restart from
/// the last checkpoint. The deadline re-arms on every commit and fires
/// at most once per attempt.
///
/// Determinism. Every timing decision (backoff instants, watchdog
/// deadlines, latency samples) reads the injected VirtualClock, and all
/// scheduler threads participate in SimClock's pending-work token
/// protocol, so a SimClock test observes the exact same timeline on
/// every run: admission order, retry instants, watchdog interrupts, and
/// shed decisions are all assertable to the exact simulated second.
///
/// Thread contract: Start / RunUntilDrained / destructor are driven by
/// one owner thread; Submit is also safe from a job's post_frame_hook
/// (the owner still decides when draining starts); stats() and
/// job_state() are safe from any thread at any time. result() is valid
/// only after RunUntilDrained returned.

#ifndef DIEVENT_FLEET_SCHEDULER_H_
#define DIEVENT_FLEET_SCHEDULER_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/cancellation.h"
#include "common/clock.h"
#include "common/quantile.h"
#include "common/thread_annotations.h"
#include "fleet/event_job.h"
#include "fleet/fleet_stats.h"

namespace dievent {

class EventCorpus;

/// Retry pacing at job scale. BackoffPolicy's own defaults are tuned for
/// camera reads (milliseconds); fleet retries wait fractions of a second
/// up to seconds.
inline BackoffPolicy DefaultFleetBackoff() {
  BackoffPolicy policy;
  policy.base_s = 0.25;
  policy.max_s = 8.0;
  policy.multiplier = 2.0;
  policy.jitter = 0.5;
  policy.seed = 7;
  return policy;
}

struct SchedulerOptions {
  /// Runner parallelism M: attempts executing at once.
  int max_concurrent = 2;
  /// Time source for every scheduling decision; null = the real clock.
  /// Must outlive the scheduler.
  VirtualClock* clock = nullptr;

  /// Quarantine pacing between attempts of a failing job.
  BackoffPolicy retry_backoff = DefaultFleetBackoff();
  /// Default error budget for specs that leave max_attempts at 0.
  int max_attempts = 3;

  /// Interrupt a running job that commits no frame for this long;
  /// 0 = watchdog off.
  double watchdog_deadline_s = 0;

  /// Default PipelineOptions::checkpoint_every_frames for specs that
  /// leave it 0 (0 here = only the final checkpoint).
  int checkpoint_every_frames = 0;

  /// Admission control: shed kLow submissions while the waiting
  /// population (pending + backoff) is at least this many;
  /// 0 = never shed.
  size_t shed_waiting_above = 0;
  /// Overload deferral: while the fleet frame-latency quantile exceeds
  /// this and something is running, kLow jobs are not dispatched;
  /// 0 = never defer.
  double defer_latency_above_s = 0;
  /// Quantile tracked per job and fleet-wide (0.95 = P95).
  double latency_quantile = 0.95;
  /// Defer decisions need at least this many latency samples.
  long long min_latency_samples = 8;

  /// When set, each completed tenant whose spec names a store_dir is
  /// registered into this corpus (EventCorpus::RegisterShard) right
  /// after completion, with no scheduler lock held — cross-event
  /// queries then see the finished event. Must outlive the scheduler.
  EventCorpus* corpus = nullptr;
};

class EventScheduler {
 public:
  explicit EventScheduler(SchedulerOptions options = {});
  /// Shuts down: running attempts are cancelled, threads joined.
  ~EventScheduler();

  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  /// Admits (or sheds) a job; returns its id. A shed job is recorded in
  /// stats with state kShed and never runs — check job_state(). Safe
  /// before or after Start(), until RunUntilDrained() returns.
  int Submit(EventJobSpec spec) EXCLUDES(mu_);

  /// Spawns the dispatcher and M runners. Idempotent. Deferring Start
  /// until after all Submit calls makes SimClock timelines exact: no
  /// scheduling happens while the test is still admitting.
  void Start() EXCLUDES(mu_);

  /// Starts if needed, then blocks until every admitted job reaches a
  /// terminal state and all scheduler threads have exited. OK when no
  /// job was parked; FailedPrecondition summarizing the parked jobs
  /// otherwise (shed admissions do not fail the drain).
  Status RunUntilDrained() EXCLUDES(mu_);

  /// Point-in-time aggregate snapshot; safe from any thread.
  FleetStats stats() const EXCLUDES(mu_);

  JobState job_state(int job_id) const EXCLUDES(mu_);

  /// The completed attempt's result (report + final repository), or
  /// null if the job did not complete. Call only after RunUntilDrained.
  const EventJobResult* result(int job_id) const EXCLUDES(mu_);

 private:
  /// One admitted (or shed) job. `spec` and `id` are immutable after
  /// Submit; `cancel` is internally synchronized; every other field is
  /// guarded by the scheduler mutex.
  struct Job {
    Job(int job_id, EventJobSpec job_spec, double latency_quantile)
        : id(job_id), spec(std::move(job_spec)), latency(latency_quantile) {
      stats.id = job_id;
      stats.name = spec.name;
      stats.priority = spec.priority;
    }

    const int id;
    const EventJobSpec spec;
    CancellationToken cancel;

    JobState state = JobState::kPending;
    int attempts = 0;  ///< attempts started
    VirtualClock::TimePoint retry_at{};     ///< valid in kBackoff
    VirtualClock::TimePoint last_commit{};  ///< watchdog liveness anchor
    bool watchdog_fired = false;            ///< once per attempt
    P2Quantile latency;
    JobStats stats;  ///< timeline + counters, mirrored into snapshots
    std::unique_ptr<EventJobResult> result;
  };

  void DispatcherLoop() EXCLUDES(mu_);
  void RunnerLoop() EXCLUDES(mu_);
  /// Parks until a job is dispatchable, then starts its attempt (state,
  /// counters, watchdog re-arm) and stores the attempt index in
  /// `*attempt`. Null once the runner should exit: shutdown, or
  /// draining with every job terminal.
  Job* NextJob(int* attempt) EXCLUDES(mu_);
  void RunOneJob(Job* job, int attempt) EXCLUDES(mu_);
  void OnFrameCommitted(Job* job) EXCLUDES(mu_);
  void Shutdown() EXCLUDES(mu_);
  /// Joins the dispatcher and every runner (owner thread only).
  void JoinThreads();

  /// Moves kBackoff jobs whose retry instant has arrived back to the
  /// pending list; true when any moved.
  bool PromoteRetriesLocked(VirtualClock::TimePoint now) REQUIRES(mu_);
  /// Trips the cancellation token of running jobs past their liveness
  /// deadline.
  void FireWatchdogsLocked(VirtualClock::TimePoint now) REQUIRES(mu_);
  /// Removes and returns the best pending job: priority desc, id asc,
  /// kLow skipped under overload; -1 when nothing is dispatchable.
  int TakeDispatchableLocked() REQUIRES(mu_);
  bool DeferLowLocked() const REQUIRES(mu_);
  bool AllTerminalLocked() const REQUIRES(mu_);
  /// Earliest instant the dispatcher must act (retry or watchdog);
  /// nullopt = wait for an event.
  std::optional<VirtualClock::TimePoint> NextDeadlineLocked() const
      REQUIRES(mu_);
  int MaxAttempts(const Job& job) const {
    return job.spec.max_attempts > 0 ? job.spec.max_attempts
                                     : options_.max_attempts;
  }

  const SchedulerOptions options_;
  VirtualClock* const clock_;

  mutable Mutex mu_{LockRank::kFleetScheduler};
  /// Wakes the dispatcher: attempt finished, frame committed while the
  /// watchdog is on (liveness deadline moved), drain, shutdown.
  CondVar dispatcher_cv_;
  /// Wakes idle runners when a job may have become dispatchable:
  /// admission, retry promotion, attempt finished, a frame committed
  /// while a kLow job is deferred; also drain and shutdown.
  CondVar runner_cv_;
  std::vector<std::unique_ptr<Job>> jobs_ GUARDED_BY(mu_);
  /// Admitted jobs awaiting a free runner, submission order.
  std::deque<int> pending_ GUARDED_BY(mu_);
  int running_ GUARDED_BY(mu_) = 0;
  /// Pending + backoff (the shed threshold's population).
  int waiting_ GUARDED_BY(mu_) = 0;
  bool started_ GUARDED_BY(mu_) = false;
  /// Set by RunUntilDrained: no further submissions are coming, so the
  /// threads may exit once every job is terminal (this is what lets
  /// an empty fleet drain instead of waiting forever for work).
  bool draining_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;
  P2Quantile fleet_latency_ GUARDED_BY(mu_);
  int deferred_dispatches_ GUARDED_BY(mu_) = 0;
  /// The latest pick skipped a kLow job under deferral.
  bool low_deferred_ GUARDED_BY(mu_) = false;

  // Thread handles: written by Start, joined by RunUntilDrained /
  // Shutdown — all on the owner thread per the class contract, so they
  // need no lock.
  std::thread dispatcher_;
  std::vector<std::thread> runners_;
};

}  // namespace dievent

#endif  // DIEVENT_FLEET_SCHEDULER_H_
