/// \file event_job.h
/// One tenant's unit of work in the fleet scheduler.
///
/// An EventJobSpec bundles everything one dining-event analysis needs to
/// run in isolation from its neighbors: the scene, the pipeline
/// configuration, and — the bulkhead part — its own durable-store
/// directory, its own filesystem handle, and its own error budget
/// (max_attempts). Nothing in a spec is shared with another tenant, so
/// one tenant's wedged store, fault-saturated cameras, or crash cannot
/// corrupt another tenant's state; the blast radius of any failure is
/// one job.
///
/// RunEventJobOnce executes a single attempt: it opens the job's store
/// (a *fresh* DurableEventStore per attempt, so a store wedged by a
/// previous attempt's I/O failure is discarded and recovery replays the
/// journal), wires in the scheduler's cancellation token and progress
/// callback, runs the pipeline, and closes the store. Ground-truth jobs
/// resume from their last checkpoint via the store's commit-marker
/// protocol; a retried attempt therefore reuses every acknowledged frame
/// instead of recomputing it.

#ifndef DIEVENT_FLEET_EVENT_JOB_H_
#define DIEVENT_FLEET_EVENT_JOB_H_

#include <functional>
#include <string>
#include <string_view>

#include "common/cancellation.h"
#include "common/clock.h"
#include "core/pipeline.h"
#include "io/journal.h"
#include "metadata/repository.h"
#include "sim/scene.h"

namespace dievent {

class FileSystem;

/// Admission priority. Overload shedding and dispatch deferral only ever
/// sacrifice kLow jobs; kHigh jobs dispatch before kNormal.
enum class JobPriority { kLow = 0, kNormal = 1, kHigh = 2 };
std::string_view JobPriorityName(JobPriority priority);

/// Scheduler lifecycle of a job.
///
///   kShed       rejected at admission (terminal)
///   kPending    admitted, waiting for a free runner
///   kRunning    an attempt is executing on a runner
///   kBackoff    attempt failed; quarantined until its retry instant
///   kParked     error budget exhausted; quarantined permanently
///               (terminal)
///   kCompleted  an attempt finished OK (terminal)
enum class JobState {
  kPending = 0,
  kRunning = 1,
  kBackoff = 2,
  kParked = 3,
  kCompleted = 4,
  kShed = 5,
};
std::string_view JobStateName(JobState state);

inline bool IsTerminalJobState(JobState state) {
  return state == JobState::kCompleted || state == JobState::kParked ||
         state == JobState::kShed;
}

/// Everything one tenant's analysis needs. The scene (and any filesystem
/// returned by fs_for_attempt) is borrowed and must outlive the job.
struct EventJobSpec {
  std::string name;
  const DiningScene* scene = nullptr;

  /// Base pipeline configuration. The scheduler fills clock, cancel,
  /// store, on_frame_committed, and (when left 0) checkpoint_every_frames
  /// at dispatch time; everything else is the tenant's to choose.
  PipelineOptions pipeline;

  /// Durable-store directory; empty = in-memory only (no persistence,
  /// no resume-on-retry).
  std::string store_dir;
  /// Journal durability knobs for the store.
  JournalOptions journal;
  /// Filesystem for attempt `attempt` (0-based); null (or returning
  /// null) = FileSystem::Default(). Fault drills inject a
  /// FaultyFileSystem for early attempts and a healed filesystem for
  /// later ones, modeling an operator replacing a bad disk.
  std::function<FileSystem*(int attempt)> fs_for_attempt;

  JobPriority priority = JobPriority::kNormal;
  /// Error budget: total attempts (first run + retries) before the job
  /// is parked. 0 = use the scheduler's default.
  int max_attempts = 0;

  /// Test hook, run on the runner thread after each frame commit (after
  /// the scheduler's own liveness bookkeeping, outside its lock). May
  /// sleep the injected clock to synthesize per-frame cost.
  std::function<void(int frame, double timestamp_s)> post_frame_hook;
};

/// Per-attempt context the scheduler threads through RunEventJobOnce.
struct EventJobRunContext {
  int attempt = 0;  ///< 0-based attempt index
  VirtualClock* clock = nullptr;
  CancellationToken* cancel = nullptr;
  /// Used when the spec leaves pipeline.checkpoint_every_frames at 0.
  int default_checkpoint_every_frames = 0;
  /// Scheduler liveness/latency bookkeeping; invoked before the spec's
  /// post_frame_hook.
  std::function<void(int frame, double timestamp_s)> on_frame_committed;
};

/// Outcome of one attempt.
struct EventJobResult {
  Status status = Status::OK();     ///< OK => `report` is valid
  DiEventReport report;
  MetadataRepository repository;    ///< final in-memory state
};

/// Runs one attempt of `spec` synchronously on the calling thread.
/// Never throws; every failure (store open, pipeline, store close) is
/// reported through the result's status. A cancelled attempt returns
/// StatusCode::kCancelled with the store closed cleanly at the last
/// committed frame.
EventJobResult RunEventJobOnce(const EventJobSpec& spec,
                               const EventJobRunContext& ctx);

}  // namespace dievent

#endif  // DIEVENT_FLEET_EVENT_JOB_H_
