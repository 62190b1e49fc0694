#include "video/acquisition_supervisor.h"

#include <algorithm>

#include "common/strings.h"

namespace dievent {

namespace {

/// Capacity of each camera's response queue.
constexpr int kResponseQueueCapacity = 8;

}  // namespace

AcquisitionSupervisor::AcquisitionSupervisor(
    std::vector<VideoSource*> sources, SupervisorOptions options)
    : options_(std::move(options)) {
  clock_ = options_.clock != nullptr ? options_.clock : RealClock::Get();
  readers_.reserve(sources.size());
  for (size_t c = 0; c < sources.size(); ++c) {
    auto reader = std::make_unique<Reader>(kResponseQueueCapacity);
    reader->source = sources[c];
    reader->camera = static_cast<int>(c);
    readers_.push_back(std::move(reader));
  }
  for (auto& reader : readers_) SpawnReader(reader.get());
}

AcquisitionSupervisor::~AcquisitionSupervisor() {
  for (auto& reader : readers_) {
    {
      MutexLock lock(reader->mutex);
      reader->stop = true;
      // Through the clock: a reader parked in a simulated backoff wait
      // must have its wake re-credit its pending-work token.
      clock_->NotifyAll(reader->mutex, reader->cv);
    }
    // Wake a reader blocked inside the source (stalled read). Sources
    // that ignore Interrupt() and never return will block the join.
    reader->source->Interrupt();
  }
  for (auto& reader : readers_) {
    if (reader->thread.joinable()) reader->thread.join();
  }
}

void AcquisitionSupervisor::ReleaseControl() {
  control_owner_.Reset();
  for (auto& reader : readers_) reader->responses.ResetConsumerOwner();
}

void AcquisitionSupervisor::SpawnReader(Reader* reader) {
  reader->thread =
      std::thread(&AcquisitionSupervisor::ReaderLoop, this, reader);
}

void AcquisitionSupervisor::MaybeInterruptLocked(Reader* reader,
                                                 double stuck_s) {
  // A reader busy past 4x the read deadline is wedged; unbounded reads
  // (read_deadline_s == 0) have no watchdog.
  const double threshold = 4.0 * options_.read_deadline_s;
  if (threshold <= 0 || stuck_s < threshold || reader->restart_pending) {
    return;
  }
  reader->restart_pending = true;
  ++reader->stats.watchdog_interrupts;
  reader->stats.last_restart_reason = StrFormat(
      "camera %d reader wedged %.3fs on frame %d; interrupted for restart",
      reader->camera, stuck_s, reader->busy_frame);
  // Thread-safe by contract; the reader blocked inside GetFrame does not
  // hold reader->mutex, so there is no lock-order issue.
  reader->source->Interrupt();
  // Also cancels a backoff sleep; through the clock so a simulated
  // sleeper's wake re-credits its token.
  clock_->NotifyAll(reader->mutex, reader->cv);
}

void AcquisitionSupervisor::ReaderLoop(Reader* reader) {
  for (;;) {
    ReaderRequest req;
    {
      MutexLock lock(reader->mutex);
      // Raw (clockless) wait: an idle reader is not pending work, and no
      // simulated-time deadline ever wakes it — only a dispatch or stop.
      while (!reader->stop && !reader->request.has_value()) {
        reader->cv.Wait(reader->mutex);
      }
      if (reader->stop) return;
      req = *reader->request;
      reader->request.reset();
      reader->busy = true;
      reader->busy_frame = req.index;
      reader->busy_since = clock_->Now();
    }

    ReaderResponse resp;
    resp.seq = req.seq;
    resp.index = req.index;
    const Clock::time_point start = clock_->Now();
    bool cancelled = false;
    for (int a = 0; a < req.max_attempts; ++a) {
      if (a > 0) {
        double delay = options_.backoff.Delay(
            a, static_cast<uint64_t>(reader->camera),
            static_cast<uint64_t>(req.index));
        if (req.budget_s > 0 &&
            VirtualClock::ToSeconds(clock_->Now() - start) + delay >=
                req.budget_s) {
          break;  // the caller stopped listening; don't burn attempts
        }
        {
          MutexLock lock(reader->mutex);
          ++reader->stats.backoff_waits;
          const Clock::time_point until =
              clock_->Now() + VirtualClock::FromSeconds(delay);
          while (!reader->stop && !reader->restart_pending) {
            if (clock_->WaitUntil(reader->mutex, reader->cv, until) ==
                std::cv_status::timeout) {
              break;
            }
          }
          cancelled = reader->stop || reader->restart_pending;
        }
        if (cancelled) break;
      }
      ++resp.attempts_used;
      Result<VideoFrame> attempt = reader->source->GetFrame(req.index);
      if (attempt.ok()) {
        resp.frame = std::move(attempt).value();
        resp.error = Status::OK();
        break;
      }
      resp.error = attempt.status();
      if (a > 0) ++resp.retry_failures;
    }
    if (!resp.frame.has_value() && resp.error.ok()) {
      resp.error = cancelled
                       ? Status::DeadlineExceeded(StrFormat(
                             "camera %d read of frame %d cancelled",
                             reader->camera, req.index))
                       : Status::Internal("no read attempt made");
    }

    bool exit_thread = false;
    bool stopping = false;
    {
      MutexLock lock(reader->mutex);
      reader->busy = false;
      reader->busy_frame = -1;
      ++reader->stats.reads_completed;
      if (!reader->responses.TryPush(std::move(resp))) {
        // Only reachable if the caller stopped draining; the response is
        // stale by definition, so dropping it is safe.
        ++reader->stats.stale_results;
      }
      reader->stats.max_queue_depth =
          std::max(reader->stats.max_queue_depth,
                   static_cast<int>(reader->responses.SizeApprox()));
      stopping = reader->stop;
      if (reader->restart_pending) {
        reader->exited = true;
        exit_thread = true;
      }
    }
    {
      // Fence + notify through the clock: a simulated finish-waiter's
      // wake must re-credit its token atomically with the notify.
      MutexLock lock(wait_mutex_);
      clock_->NotifyAll(wait_mutex_, responses_cv_);
    }
    // The dispatch token, held since the request became visible. Posted
    // outside every lock: a negative delta may advance simulated time and
    // fence waiter mutexes.
    clock_->AddPendingWork(-1);
    if (stopping || exit_thread) return;
  }
}

std::vector<AcquisitionSupervisor::ReadOutcome> AcquisitionSupervisor::Read(
    int index, const std::vector<int>& max_attempts) {
  return FinishRead(BeginRead(index, max_attempts));
}

AcquisitionSupervisor::PendingRead AcquisitionSupervisor::BeginRead(
    int index, const std::vector<int>& max_attempts) {
  DCHECK_OWNED_BY(control_owner_);
  // Control token: the caller is mid-read until FinishRead returns, so
  // simulated time must not advance just because readers went quiet.
  clock_->AddPendingWork(1);

  PendingRead p;
  p.index = index;
  p.seq = ++seq_;
  p.bounded = options_.read_deadline_s > 0;
  p.deadline =
      clock_->Now() + VirtualClock::FromSeconds(options_.read_deadline_s);
  p.out.resize(readers_.size());
  p.pending.assign(readers_.size(), false);

  const long long seq = p.seq;
  std::vector<ReadOutcome>& out = p.out;
  std::vector<bool>& pending = p.pending;
  size_t& remaining = p.remaining;

  for (size_t c = 0; c < readers_.size(); ++c) {
    if (c >= max_attempts.size() || max_attempts[c] <= 0) continue;
    Reader& reader = *readers_[c];
    out[c].dispatched = true;

    // Drop responses from reads this caller already gave up on.
    while (auto stale = reader.responses.TryPop()) {
      MutexLock lock(reader.mutex);
      ++reader.stats.stale_results;
    }

    bool replace_thread = false;
    {
      MutexLock lock(reader.mutex);
      replace_thread = reader.exited;
    }
    if (replace_thread) {
      // The watchdog's interrupt landed and the wedged thread has left its
      // loop: replace it. Joining outside the lock is safe — `exited` means
      // the thread will never touch its state again, and only this control
      // thread joins or spawns readers.
      reader.thread.join();
      // The replacement thread becomes the queue's producer; the join
      // above is the synchronization that makes the handoff sound.
      reader.responses.ResetProducerOwner();
      MutexLock lock(reader.mutex);
      reader.exited = false;
      reader.restart_pending = false;
      reader.busy = false;
      ++reader.stats.restarts;
      SpawnReader(&reader);
    }
    bool dispatched = false;
    {
      MutexLock lock(reader.mutex);
      if (reader.busy) {
        // Still wedged on an earlier frame: this read is an immediate
        // miss; the watchdog decides whether to interrupt.
        const double stuck_s =
            VirtualClock::ToSeconds(clock_->Now() - reader.busy_since);
        out[c].deadline_missed = true;
        out[c].error = Status::DeadlineExceeded(StrFormat(
            "camera %zu frame %d: reader wedged for %.3fs on frame %d", c,
            index, stuck_s, reader.busy_frame));
        ++reader.stats.deadline_misses;
        MaybeInterruptLocked(&reader, stuck_s);
      } else {
        // Dispatch token BEFORE the request becomes visible: once the
        // reader can see work, simulated time must treat it as in
        // flight. A positive delta never advances or fences, so posting
        // it under reader.mutex is safe.
        clock_->AddPendingWork(1);
        reader.request = ReaderRequest{seq, index, max_attempts[c],
                                       options_.read_deadline_s};
        dispatched = true;
      }
    }
    if (!dispatched) continue;
    reader.cv.NotifyOne();
    pending[c] = true;
    ++remaining;
  }
  return p;
}

std::vector<AcquisitionSupervisor::ReadOutcome>
AcquisitionSupervisor::FinishRead(PendingRead p) {
  DCHECK_OWNED_BY(control_owner_);
  const long long seq = p.seq;
  const int index = p.index;
  std::vector<ReadOutcome>& out = p.out;
  std::vector<bool>& pending = p.pending;
  size_t& remaining = p.remaining;

  auto drain = [&] {
    for (size_t c = 0; c < readers_.size(); ++c) {
      if (!pending[c]) continue;
      Reader& reader = *readers_[c];
      while (auto resp = reader.responses.TryPop()) {
        if (resp->seq != seq) {
          MutexLock lock(reader.mutex);
          ++reader.stats.stale_results;
          continue;
        }
        out[c].frame = std::move(resp->frame);
        out[c].error = resp->error;
        out[c].attempts_used = resp->attempts_used;
        out[c].retry_failures = resp->retry_failures;
        pending[c] = false;
        --remaining;
        break;
      }
    }
  };

  // Once the deadline has passed, marks every pending camera as missed.
  auto expire = [&](Clock::time_point at) {
    if (!p.bounded || p.deadline > at) return;
    for (size_t c = 0; c < readers_.size(); ++c) {
      if (!pending[c]) continue;
      Reader& reader = *readers_[c];
      out[c].deadline_missed = true;
      out[c].error = Status::DeadlineExceeded(
          StrFormat("camera %zu frame %d: no response within %.3fs", c,
                    index, options_.read_deadline_s));
      pending[c] = false;
      --remaining;
      MutexLock lock(reader.mutex);
      ++reader.stats.deadline_misses;
    }
  };

  // Atomics only — safe to evaluate under wait_mutex_ (drain() itself
  // takes reader mutexes for stale accounting, so it must not run there).
  auto has_any_response = [&] {
    for (size_t c = 0; c < readers_.size(); ++c) {
      if (pending[c] && !readers_[c]->responses.EmptyApprox()) return true;
    }
    return false;
  };

  while (remaining > 0) {
    drain();
    if (remaining == 0) break;
    expire(clock_->Now());
    if (remaining == 0) break;
    {
      MutexLock wait_lock(wait_mutex_);
      if (has_any_response()) continue;  // recheck under the fence mutex
      if (p.bounded) {
        if (clock_->Now() >= p.deadline) continue;  // expire on the next pass
        // Result deliberately unused: the loop re-drains and re-expires
        // on every wakeup, timeout or not.
        clock_->WaitUntil(wait_mutex_, responses_cv_, p.deadline);
      } else {
        clock_->Wait(wait_mutex_, responses_cv_);
      }
    }
  }

  // Release the control token taken at BeginRead. Outside every lock: a
  // negative delta may advance simulated time and fence waiter mutexes.
  clock_->AddPendingWork(-1);
  return std::move(p.out);
}

AcquisitionSupervisor::ReaderStats AcquisitionSupervisor::stats(
    int camera) const {
  const Reader& reader = *readers_.at(camera);
  MutexLock lock(reader.mutex);
  return reader.stats;
}

}  // namespace dievent
