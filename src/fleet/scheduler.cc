#include "fleet/scheduler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/strings.h"
#include "metadata/corpus.h"

namespace dievent {

EventScheduler::EventScheduler(SchedulerOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : RealClock::Get()),
      fleet_latency_(options_.latency_quantile) {}

EventScheduler::~EventScheduler() { Shutdown(); }

int EventScheduler::Submit(EventJobSpec spec) {
  MutexLock lock(mu_);
  const int id = static_cast<int>(jobs_.size());
  auto job =
      std::make_unique<Job>(id, std::move(spec), options_.latency_quantile);
  job->stats.admitted_at_s = clock_->NowSeconds();
  const bool shed = options_.shed_waiting_above > 0 &&
                    job->spec.priority == JobPriority::kLow &&
                    static_cast<size_t>(waiting_) >=
                        options_.shed_waiting_above;
  if (shed) {
    job->state = JobState::kShed;
    job->stats.last_error = Status::FailedPrecondition(StrFormat(
        "shed at admission: %d job(s) waiting >= threshold %zu", waiting_,
        options_.shed_waiting_above));
  } else {
    job->state = JobState::kPending;
    ++waiting_;
    pending_.push_back(id);
    clock_->NotifyAll(mu_, runner_cv_);
  }
  jobs_.push_back(std::move(job));
  return id;
}

void EventScheduler::Start() {
  {
    MutexLock lock(mu_);
    if (started_) return;
    started_ = true;
  }
  const int m = std::max(1, options_.max_concurrent);
  // Credit one pending-work token per scheduler thread *before* any of
  // them exists, so SimClock cannot auto-advance in the window between
  // spawn and the thread's first clock-mediated wait. Each thread
  // releases its token as its last act.
  clock_->AddPendingWork(1 + m);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  runners_.reserve(m);
  for (int i = 0; i < m; ++i) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
}

Status EventScheduler::RunUntilDrained() {
  Start();
  {
    MutexLock lock(mu_);
    draining_ = true;
    clock_->NotifyAll(mu_, dispatcher_cv_);
    clock_->NotifyAll(mu_, runner_cv_);
  }
  JoinThreads();

  MutexLock lock(mu_);
  int parked = 0;
  std::string first;
  for (const auto& job : jobs_) {
    if (job->state != JobState::kParked) continue;
    ++parked;
    if (first.empty()) {
      first = job->spec.name + ": " + job->stats.last_error.ToString();
    }
  }
  if (parked == 0) return Status::OK();
  return Status::FailedPrecondition(
      StrFormat("%d job(s) parked; first: %s", parked, first.c_str()));
}

void EventScheduler::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    // Interrupt running attempts so the drain below is prompt; their
    // stores close cleanly at the next frame boundary.
    for (const auto& job : jobs_) {
      if (job->state == JobState::kRunning) job->cancel.Cancel();
    }
    clock_->NotifyAll(mu_, dispatcher_cv_);
    clock_->NotifyAll(mu_, runner_cv_);
  }
  JoinThreads();
}

void EventScheduler::JoinThreads() {
  if (dispatcher_.joinable()) dispatcher_.join();
  for (std::thread& runner : runners_) runner.join();
  runners_.clear();
}

// --- dispatcher --------------------------------------------------------

void EventScheduler::DispatcherLoop() {
  {
    MutexLock lock(mu_);
    while (!shutdown_) {
      const VirtualClock::TimePoint now = clock_->Now();
      if (PromoteRetriesLocked(now)) clock_->NotifyAll(mu_, runner_cv_);
      FireWatchdogsLocked(now);
      if (draining_ && AllTerminalLocked()) break;
      std::optional<VirtualClock::TimePoint> deadline =
          NextDeadlineLocked();
      if (deadline.has_value()) {
        clock_->WaitUntil(mu_, dispatcher_cv_, *deadline);
      } else {
        clock_->Wait(mu_, dispatcher_cv_);
      }
    }
  }
  clock_->AddPendingWork(-1);
}

bool EventScheduler::PromoteRetriesLocked(VirtualClock::TimePoint now) {
  bool promoted = false;
  for (const auto& job : jobs_) {
    if (job->state != JobState::kBackoff || now < job->retry_at) continue;
    job->state = JobState::kPending;
    pending_.push_back(job->id);
    promoted = true;
  }
  return promoted;
}

void EventScheduler::FireWatchdogsLocked(VirtualClock::TimePoint now) {
  if (options_.watchdog_deadline_s <= 0) return;
  const VirtualClock::Duration deadline =
      VirtualClock::FromSeconds(options_.watchdog_deadline_s);
  for (const auto& job : jobs_) {
    if (job->state != JobState::kRunning || job->watchdog_fired) continue;
    if (now < job->last_commit + deadline) continue;
    job->cancel.Cancel();
    job->watchdog_fired = true;
    job->stats.watchdog_fired_at_s.push_back(clock_->NowSeconds());
  }
}

int EventScheduler::TakeDispatchableLocked() {
  const bool defer_low = DeferLowLocked();
  bool skipped_low = false;
  // Highest priority first, FIFO (= lowest id) within a priority.
  int best = -1;
  for (int id : pending_) {
    const Job& job = *jobs_[id];
    if (defer_low && job.spec.priority == JobPriority::kLow) {
      skipped_low = true;
      continue;
    }
    if (best < 0) {
      best = id;
      continue;
    }
    const Job& incumbent = *jobs_[best];
    if (static_cast<int>(job.spec.priority) >
            static_cast<int>(incumbent.spec.priority) ||
        (job.spec.priority == incumbent.spec.priority && id < best)) {
      best = id;
    }
  }
  low_deferred_ = skipped_low;
  if (skipped_low) ++deferred_dispatches_;
  if (best >= 0) {
    pending_.erase(std::find(pending_.begin(), pending_.end(), best));
  }
  return best;
}

bool EventScheduler::DeferLowLocked() const {
  return options_.defer_latency_above_s > 0 && running_ > 0 &&
         fleet_latency_.count() >= options_.min_latency_samples &&
         fleet_latency_.Estimate() > options_.defer_latency_above_s;
}

bool EventScheduler::AllTerminalLocked() const {
  for (const auto& job : jobs_) {
    if (!IsTerminalJobState(job->state)) return false;
  }
  return true;
}

std::optional<VirtualClock::TimePoint>
EventScheduler::NextDeadlineLocked() const {
  std::optional<VirtualClock::TimePoint> next;
  auto consider = [&next](VirtualClock::TimePoint tp) {
    if (!next.has_value() || tp < *next) next = tp;
  };
  const VirtualClock::Duration watchdog =
      VirtualClock::FromSeconds(options_.watchdog_deadline_s);
  for (const auto& job : jobs_) {
    if (job->state == JobState::kBackoff) {
      consider(job->retry_at);
    } else if (job->state == JobState::kRunning &&
               options_.watchdog_deadline_s > 0 && !job->watchdog_fired) {
      consider(job->last_commit + watchdog);
    }
  }
  return next;
}

// --- runners -----------------------------------------------------------

void EventScheduler::RunnerLoop() {
  int attempt = 0;
  while (Job* job = NextJob(&attempt)) {
    RunOneJob(job, attempt);
  }
  clock_->AddPendingWork(-1);
}

EventScheduler::Job* EventScheduler::NextJob(int* attempt) {
  MutexLock lock(mu_);
  while (!shutdown_) {
    const int id = TakeDispatchableLocked();
    if (id >= 0) {
      Job* job = jobs_[id].get();
      job->state = JobState::kRunning;
      ++running_;
      --waiting_;
      *attempt = job->attempts++;
      job->stats.attempts = job->attempts;
      job->stats.attempt_started_at_s.push_back(clock_->NowSeconds());
      job->last_commit = clock_->Now();
      // Re-arm between attempts: no other thread holds the token while
      // the job is not running.
      job->watchdog_fired = false;
      job->cancel.Reset();
      return job;
    }
    if (draining_ && AllTerminalLocked()) break;
    clock_->Wait(mu_, runner_cv_);
  }
  return nullptr;
}

void EventScheduler::RunOneJob(Job* job, int attempt) {
  EventJobRunContext ctx;
  ctx.attempt = attempt;
  ctx.clock = clock_;
  ctx.cancel = &job->cancel;
  ctx.default_checkpoint_every_frames = options_.checkpoint_every_frames;
  ctx.on_frame_committed = [this, job](int /*frame*/,
                                       double /*timestamp_s*/) {
    OnFrameCommitted(job);
  };

  EventJobResult result = RunEventJobOnce(job->spec, ctx);

  // Publish the finished tenant's store into the corpus BEFORE taking
  // mu_: registration does store I/O and takes the corpus lock
  // (kCorpus), neither of which belongs under the scheduler mutex.
  Status register_status = Status::OK();
  bool registered = false;
  if (result.status.ok() && options_.corpus != nullptr &&
      !job->spec.store_dir.empty()) {
    register_status = options_.corpus->RegisterShard(job->spec.store_dir);
    registered = register_status.ok();
  }

  {
    MutexLock lock(mu_);
    --running_;
    if (result.status.ok()) {
      job->state = JobState::kCompleted;
      job->stats.completed_at_s = clock_->NowSeconds();
      job->stats.degradation = result.report.degradation;
      job->stats.registered_in_corpus = registered;
      job->stats.corpus_register_error = register_status;
      job->result =
          std::make_unique<EventJobResult>(std::move(result));
    } else {
      job->stats.last_error = result.status;
      if (job->attempts >= MaxAttempts(*job)) {
        job->state = JobState::kParked;
      } else {
        // Quarantine with capped exponential backoff. Delay is pure in
        // (attempt, job id), so the retry instant is exact under
        // SimClock and replayable across runs.
        job->state = JobState::kBackoff;
        ++waiting_;
        const double delay_s = options_.retry_backoff.Delay(
            job->attempts, static_cast<uint64_t>(job->id), 0);
        job->retry_at = clock_->Now() + VirtualClock::FromSeconds(delay_s);
        job->stats.retry_scheduled_for_s.push_back(clock_->NowSeconds() +
                                                   delay_s);
      }
    }
    // A retry or watchdog deadline changed, the drain may be complete,
    // and with one fewer attempt running a deferred kLow job may now go.
    clock_->NotifyAll(mu_, dispatcher_cv_);
    clock_->NotifyAll(mu_, runner_cv_);
  }
}

void EventScheduler::OnFrameCommitted(Job* job) {
  MutexLock lock(mu_);
  const VirtualClock::TimePoint now = clock_->Now();
  const double latency_s = VirtualClock::ToSeconds(now - job->last_commit);
  job->last_commit = now;  // watchdog liveness re-arms on every commit
  ++job->stats.frames_committed;
  job->latency.Add(latency_s);
  fleet_latency_.Add(latency_s);
  // The liveness deadline moved: the dispatcher re-derives its wait.
  if (options_.watchdog_deadline_s > 0) {
    clock_->NotifyAll(mu_, dispatcher_cv_);
  }
  // The fleet quantile moved: an idle runner re-checks the deferral.
  if (low_deferred_) clock_->NotifyAll(mu_, runner_cv_);
}

// --- observability -----------------------------------------------------

FleetStats EventScheduler::stats() const {
  MutexLock lock(mu_);
  FleetStats out;
  out.submitted = static_cast<int>(jobs_.size());
  out.running = running_;
  out.waiting = waiting_;
  out.deferred_dispatches = deferred_dispatches_;
  out.frame_latency_quantile_s = fleet_latency_.Estimate();
  out.latency_samples = fleet_latency_.count();
  for (const auto& job : jobs_) {
    JobStats stats = job->stats;
    stats.state = job->state;
    stats.attempts = job->attempts;
    stats.frame_latency_quantile_s = job->latency.Estimate();
    stats.latency_samples = job->latency.count();
    out.frames_committed += stats.frames_committed;
    out.retries += std::max(0, job->attempts - 1);
    out.watchdog_interrupts +=
        static_cast<int>(stats.watchdog_fired_at_s.size());
    switch (job->state) {
      case JobState::kCompleted:
        ++out.completed;
        if (stats.registered_in_corpus) {
          ++out.corpus_registered;
        } else if (!stats.corpus_register_error.ok()) {
          ++out.corpus_register_failures;
        }
        break;
      case JobState::kParked:
        ++out.parked;
        break;
      case JobState::kShed:
        ++out.shed;
        break;
      default:
        break;
    }
    out.jobs.push_back(std::move(stats));
  }
  return out;
}

JobState EventScheduler::job_state(int job_id) const {
  MutexLock lock(mu_);
  if (job_id < 0 || static_cast<size_t>(job_id) >= jobs_.size()) {
    return JobState::kShed;
  }
  return jobs_[job_id]->state;
}

const EventJobResult* EventScheduler::result(int job_id) const {
  MutexLock lock(mu_);
  if (job_id < 0 || static_cast<size_t>(job_id) >= jobs_.size()) {
    return nullptr;
  }
  return jobs_[job_id]->result.get();
}

}  // namespace dievent
