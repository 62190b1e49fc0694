/// \file fleet_stats.h
/// Observability surface of the fleet scheduler.
///
/// JobStats is the per-tenant record: lifecycle state, attempt timeline
/// (admission, attempt starts, scheduled retries, watchdog interrupts —
/// all as clock instants, so SimClock tests can assert them exactly),
/// frame progress, a per-job P² latency estimate, and the last completed
/// attempt's DegradationStats. FleetStats aggregates the fleet: terminal
/// counts, total frames, the fleet-wide latency quantile the load
/// controller sheds on, and the shed/defer/retry/watchdog tallies that
/// describe how the scheduler spent its error budgets.

#ifndef DIEVENT_FLEET_FLEET_STATS_H_
#define DIEVENT_FLEET_FLEET_STATS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "fleet/event_job.h"

namespace dievent {

/// One tenant's scheduler-visible history. All instants are seconds on
/// the scheduler's clock (simulated seconds under SimClock).
struct JobStats {
  int id = -1;
  std::string name;
  JobPriority priority = JobPriority::kNormal;
  JobState state = JobState::kPending;

  int attempts = 0;                ///< attempts started so far
  long long frames_committed = 0;  ///< across all attempts
  Status last_error;               ///< most recent failed attempt

  double admitted_at_s = 0;        ///< Submit() instant (shed jobs too)
  std::vector<double> attempt_started_at_s;
  /// Retry instants armed after failed attempts (when the backoff
  /// quarantine ends, not when it began).
  std::vector<double> retry_scheduled_for_s;
  std::vector<double> watchdog_fired_at_s;
  double completed_at_s = -1;      ///< -1 until kCompleted

  /// Per-job frame-latency quantile estimate (the scheduler's configured
  /// quantile, P95 by default).
  double frame_latency_quantile_s = 0;
  long long latency_samples = 0;

  /// From the last completed attempt's report (zero otherwise).
  DegradationStats degradation;

  /// True once the completed tenant's store directory was published to
  /// the corpus (SchedulerOptions::corpus); stays false when no corpus
  /// is configured, the job has no store_dir, or registration failed
  /// (then corpus_register_error carries the reason).
  bool registered_in_corpus = false;
  Status corpus_register_error;
};

/// Fleet-wide aggregate snapshot.
struct FleetStats {
  std::vector<JobStats> jobs;

  int submitted = 0;   ///< includes shed admissions
  int completed = 0;
  int parked = 0;
  int shed = 0;
  int running = 0;
  int waiting = 0;     ///< pending + backoff

  long long frames_committed = 0;
  long long retries = 0;           ///< attempts beyond each job's first
  int watchdog_interrupts = 0;
  int deferred_dispatches = 0;     ///< runner picks that skipped kLow
  int corpus_registered = 0;       ///< tenants published to the corpus
  int corpus_register_failures = 0;

  /// Fleet-wide frame-latency quantile the load controller samples.
  double frame_latency_quantile_s = 0;
  long long latency_samples = 0;

  /// True when every admitted job completed (no parked jobs; shed
  /// admissions are policy, not failure).
  bool AllHealthy() const { return parked == 0; }

  /// Multi-line health surface: one fleet summary line plus one line per
  /// job.
  std::string ToString() const;
};

}  // namespace dievent

#endif  // DIEVENT_FLEET_FLEET_STATS_H_
