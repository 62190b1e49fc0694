// SimClock-exact fleet-scheduler timelines: admission/dispatch order,
// backoff-retry instants, the watchdog interrupt deadline, and
// shed/defer decisions are all asserted to the exact simulated second.
// Everything here runs on auto-advancing simulated time, mostly with one
// runner (max_concurrent = 1), so the whole schedule is a deterministic
// sequence no matter how loaded the test machine is.
//
// Idiom (mirrors test_retry_timeline.cc): submit every job BEFORE
// Start(), so no scheduling happens while the test is still admitting —
// except where a test admits mid-run on purpose, from a job's
// post_frame_hook at a fixed simulated instant; per-frame cost is
// synthesized by a post_frame_hook that sleeps the SimClock; expected
// instants are recomputed from the same pure functions the scheduler
// uses (BackoffPolicy::Delay).

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <string>

#include "common/clock.h"
#include "fleet/scheduler.h"
#include "io/faulty_file.h"
#include "io/file.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

constexpr double kTolerance = 1e-6;  // ns-rounding slack on instants

std::string FreshStoreDir(const std::string& name) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = testing::TempDir() + "/" + name;
  if (fs->Exists(dir)) {
    auto names = fs->ListDir(dir);
    EXPECT_TRUE(names.ok()) << names.status().ToString();
    for (const std::string& n : names.value()) {
      EXPECT_TRUE(fs->Remove(JoinPath(dir, n)).ok());
    }
  }
  return dir;
}

/// A small ground-truth job: deterministic analysis math only, so all
/// simulated time comes from the injected per-frame sleep.
EventJobSpec QuickJob(const std::string& name, const DiningScene* scene,
                      JobPriority priority) {
  EventJobSpec spec;
  spec.name = name;
  spec.scene = scene;
  spec.priority = priority;
  spec.pipeline.mode = PipelineMode::kGroundTruth;
  spec.pipeline.parse_video = false;
  return spec;
}

/// Attaches a per-frame cost: each committed frame sleeps the clock.
void AddFrameCost(EventJobSpec* spec, SimClock* clock, double cost_s) {
  spec->post_frame_hook = [clock, cost_s](int /*frame*/, double /*t*/) {
    clock->SleepFor(VirtualClock::FromSeconds(cost_s));
  };
}

TEST(SchedulerTimelineTest, DispatchOrderIsPriorityThenFifoExact) {
  SimClock::Options clock_options;
  clock_options.auto_advance = true;
  SimClock clock(clock_options);

  // 4 frames at 10 fps; 1 simulated second per frame.
  const DiningScene scene = MakeDinnerScenario(3, 0.4, 10.0);
  const int frames = scene.num_frames();
  ASSERT_EQ(frames, 4);
  const double job_cost_s = frames * 1.0;

  SchedulerOptions options;
  options.clock = &clock;
  options.max_concurrent = 1;
  EventScheduler scheduler(options);

  EventJobSpec low = QuickJob("low", &scene, JobPriority::kLow);
  EventJobSpec normal_a = QuickJob("normal-a", &scene, JobPriority::kNormal);
  EventJobSpec normal_b = QuickJob("normal-b", &scene, JobPriority::kNormal);
  EventJobSpec high = QuickJob("high", &scene, JobPriority::kHigh);
  for (EventJobSpec* spec : {&low, &normal_a, &normal_b, &high}) {
    AddFrameCost(spec, &clock, 1.0);
  }
  const int id_low = scheduler.Submit(std::move(low));
  const int id_a = scheduler.Submit(std::move(normal_a));
  const int id_b = scheduler.Submit(std::move(normal_b));
  const int id_high = scheduler.Submit(std::move(high));

  ASSERT_TRUE(scheduler.RunUntilDrained().ok());

  // Execution order: high, then the normals in submission order, then
  // low — back to back on the single runner, each exactly 4 s long.
  FleetStats stats = scheduler.stats();
  ASSERT_EQ(stats.completed, 4);
  auto started = [&](int id) {
    const JobStats& job = stats.jobs[id];
    EXPECT_EQ(job.state, JobState::kCompleted) << job.name;
    EXPECT_EQ(job.attempts, 1) << job.name;
    EXPECT_EQ(job.attempt_started_at_s.size(), 1u) << job.name;
    return job.attempt_started_at_s[0];
  };
  EXPECT_NEAR(started(id_high), 0.0, kTolerance);
  EXPECT_NEAR(started(id_a), job_cost_s, kTolerance);
  EXPECT_NEAR(started(id_b), 2 * job_cost_s, kTolerance);
  EXPECT_NEAR(started(id_low), 3 * job_cost_s, kTolerance);
  EXPECT_NEAR(stats.jobs[id_low].completed_at_s, 4 * job_cost_s,
              kTolerance);
  EXPECT_EQ(stats.frames_committed, 4ll * frames);
}

TEST(SchedulerTimelineTest, BackoffRetryInstantsExactAcrossSeeds) {
  // A job whose store filesystem fails every append on attempts 0 and 1
  // and is healed on attempt 2. The two retry instants must land at
  // exactly the BackoffPolicy delays for (attempt, job id) — recomputed
  // here from the same pure function — for several policy seeds.
  for (uint64_t seed : {1ull, 7ull, 42ull}) {
    SimClock::Options clock_options;
    clock_options.auto_advance = true;
    SimClock clock(clock_options);

    const DiningScene scene = MakeDinnerScenario(3, 0.3, 10.0);

    SchedulerOptions options;
    options.clock = &clock;
    options.max_concurrent = 1;
    options.max_attempts = 3;
    options.retry_backoff.seed = seed;
    EventScheduler scheduler(options);

    FaultyFileSystem broken_fs(FileSystem::Default(),
                               [] {
                                 FileFaultSpec spec;
                                 spec.write_error_probability = 1.0;
                                 return spec;
                               }());
    EventJobSpec job = QuickJob("flaky", &scene, JobPriority::kNormal);
    job.store_dir = FreshStoreDir("sched_backoff_" + std::to_string(seed));
    job.fs_for_attempt = [&broken_fs](int attempt) -> FileSystem* {
      return attempt < 2 ? &broken_fs : FileSystem::Default();
    };
    const int id = scheduler.Submit(std::move(job));

    ASSERT_TRUE(scheduler.RunUntilDrained().ok());

    // Failures consume no simulated time, so the whole timeline is the
    // two backoff delays laid end to end.
    const double d1 = options.retry_backoff.Delay(1, id, 0);
    const double d2 = options.retry_backoff.Delay(2, id, 0);
    FleetStats stats = scheduler.stats();
    const JobStats& flaky = stats.jobs[id];
    EXPECT_EQ(flaky.state, JobState::kCompleted);
    EXPECT_EQ(flaky.attempts, 3);
    ASSERT_EQ(flaky.attempt_started_at_s.size(), 3u);
    EXPECT_NEAR(flaky.attempt_started_at_s[0], 0.0, kTolerance);
    EXPECT_NEAR(flaky.attempt_started_at_s[1], d1, kTolerance);
    EXPECT_NEAR(flaky.attempt_started_at_s[2], d1 + d2, kTolerance);
    ASSERT_EQ(flaky.retry_scheduled_for_s.size(), 2u);
    EXPECT_NEAR(flaky.retry_scheduled_for_s[0], d1, kTolerance);
    EXPECT_NEAR(flaky.retry_scheduled_for_s[1], d1 + d2, kTolerance);
    EXPECT_EQ(stats.retries, 2);
  }
}

TEST(SchedulerTimelineTest, WatchdogInterruptsAtExactDeadline) {
  SimClock::Options clock_options;
  clock_options.auto_advance = true;
  SimClock clock(clock_options);

  // 6 frames; healthy frames cost 0.5 s, but the first time frame 2
  // commits, the job wedges for 10 s. With a 2 s liveness deadline the
  // watchdog must fire at exactly last_commit + 2 = 3.0 s.
  const DiningScene scene = MakeDinnerScenario(3, 0.6, 10.0);
  ASSERT_EQ(scene.num_frames(), 6);

  SchedulerOptions options;
  options.clock = &clock;
  options.max_concurrent = 1;
  options.watchdog_deadline_s = 2.0;
  options.checkpoint_every_frames = 1;
  options.max_attempts = 3;
  EventScheduler scheduler(options);

  std::atomic<bool> wedged_once{false};
  EventJobSpec job = QuickJob("stuck", &scene, JobPriority::kNormal);
  job.store_dir = FreshStoreDir("sched_watchdog");
  job.post_frame_hook = [&clock, &wedged_once](int frame, double /*t*/) {
    double cost_s = 0.5;
    if (frame == 2 && !wedged_once.exchange(true)) cost_s = 10.0;
    clock.SleepFor(VirtualClock::FromSeconds(cost_s));
  };
  const int id = scheduler.Submit(std::move(job));

  ASSERT_TRUE(scheduler.RunUntilDrained().ok());

  // Attempt 1: commits at 0.0, 0.5, 1.0; wedges until 11.0; the
  // watchdog fires at 3.0; the pipeline observes the cancel at the next
  // frame boundary (11.0) and unwinds with kCancelled.
  FleetStats stats = scheduler.stats();
  const JobStats& stuck = stats.jobs[id];
  ASSERT_EQ(stuck.watchdog_fired_at_s.size(), 1u);
  EXPECT_NEAR(stuck.watchdog_fired_at_s[0], 3.0, kTolerance);
  EXPECT_EQ(stuck.last_error.code(), StatusCode::kCancelled);
  EXPECT_EQ(stats.watchdog_interrupts, 1);

  // Attempt 2 starts after the backoff quarantine and resumes from the
  // checkpoint: frames 0..2 are reused, 3..5 recomputed at 0.5 s each.
  const double d1 = options.retry_backoff.Delay(1, id, 0);
  EXPECT_EQ(stuck.state, JobState::kCompleted);
  EXPECT_EQ(stuck.attempts, 2);
  ASSERT_EQ(stuck.attempt_started_at_s.size(), 2u);
  EXPECT_NEAR(stuck.attempt_started_at_s[1], 11.0 + d1, kTolerance);
  EXPECT_NEAR(stuck.completed_at_s, 11.0 + d1 + 3 * 0.5, kTolerance);
  const EventJobResult* result = scheduler.result(id);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->report.degradation.resumed_from_frame, 2);
  EXPECT_EQ(result->report.degradation.resume_reused_frames, 3);
  EXPECT_EQ(result->report.frames_processed, 6);
}

TEST(SchedulerTimelineTest, ShedsLowPriorityAdmissionsAtThreshold) {
  SimClock::Options clock_options;
  clock_options.auto_advance = true;
  SimClock clock(clock_options);

  const DiningScene scene = MakeDinnerScenario(3, 0.2, 10.0);

  SchedulerOptions options;
  options.clock = &clock;
  options.max_concurrent = 1;
  options.shed_waiting_above = 2;
  EventScheduler scheduler(options);

  // Two normals fill the waiting population to the threshold; the low
  // submission is shed at admission, the high one is not.
  const int id_a =
      scheduler.Submit(QuickJob("a", &scene, JobPriority::kNormal));
  const int id_b =
      scheduler.Submit(QuickJob("b", &scene, JobPriority::kNormal));
  const int id_low =
      scheduler.Submit(QuickJob("low", &scene, JobPriority::kLow));
  const int id_high =
      scheduler.Submit(QuickJob("high", &scene, JobPriority::kHigh));
  EXPECT_EQ(scheduler.job_state(id_low), JobState::kShed);

  ASSERT_TRUE(scheduler.RunUntilDrained().ok())
      << "shed admissions do not fail the drain";

  FleetStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.jobs[id_a].state, JobState::kCompleted);
  EXPECT_EQ(stats.jobs[id_b].state, JobState::kCompleted);
  EXPECT_EQ(stats.jobs[id_high].state, JobState::kCompleted);
  EXPECT_EQ(stats.jobs[id_low].state, JobState::kShed);
  EXPECT_EQ(stats.jobs[id_low].attempts, 0) << "a shed job never runs";
  EXPECT_FALSE(stats.jobs[id_low].last_error.ok());
}

TEST(SchedulerTimelineTest, DefersLowPriorityUnderLatencyOverload) {
  SimClock::Options clock_options;
  clock_options.auto_advance = true;
  SimClock clock(clock_options);

  // Two normal jobs commit frames at 0.5 s each, holding the fleet P95
  // above the 0.1 s threshold for the whole run, so the low job — even
  // though it was submitted second — must wait until the fleet drains
  // at t = 5.0. With one runner the timeline is interleaving-free:
  // slow runs [0, 4), quick runs [4, 5), low runs at 5.0.
  const DiningScene slow_scene = MakeDinnerScenario(3, 0.8, 10.0);
  ASSERT_EQ(slow_scene.num_frames(), 8);
  const DiningScene quick_scene = MakeDinnerScenario(3, 0.2, 10.0);
  ASSERT_EQ(quick_scene.num_frames(), 2);

  SchedulerOptions options;
  options.clock = &clock;
  options.max_concurrent = 1;
  options.defer_latency_above_s = 0.1;
  options.min_latency_samples = 1;
  EventScheduler scheduler(options);

  EventJobSpec slow = QuickJob("slow", &slow_scene, JobPriority::kNormal);
  AddFrameCost(&slow, &clock, 0.5);
  const int id_slow = scheduler.Submit(std::move(slow));
  EventJobSpec low =
      QuickJob("deferred", &quick_scene, JobPriority::kLow);
  const int id_low = scheduler.Submit(std::move(low));
  EventJobSpec quick =
      QuickJob("quick", &quick_scene, JobPriority::kNormal);
  AddFrameCost(&quick, &clock, 0.5);
  const int id_quick = scheduler.Submit(std::move(quick));

  ASSERT_TRUE(scheduler.RunUntilDrained().ok());

  // The normal job started ahead of the low one; the low job ran only
  // once the fleet went idle (deferral requires something to be
  // running, so overload can never park a low job forever). With one
  // runner, a free runner means nothing is running, so deferral itself
  // never fires here — DeferredLowWaitsWhileARunnerIsIdle covers it.
  FleetStats stats = scheduler.stats();
  ASSERT_EQ(stats.completed, 3);
  ASSERT_EQ(stats.jobs[id_quick].attempt_started_at_s.size(), 1u);
  ASSERT_EQ(stats.jobs[id_low].attempt_started_at_s.size(), 1u);
  EXPECT_NEAR(stats.jobs[id_quick].attempt_started_at_s[0], 4.0,
              kTolerance);
  EXPECT_NEAR(stats.jobs[id_low].attempt_started_at_s[0], 5.0,
              kTolerance);
  EXPECT_GT(stats.jobs[id_slow].frame_latency_quantile_s,
            options.defer_latency_above_s);
}

TEST(SchedulerTimelineTest, HighPriorityAdmittedMidRunStartsNext) {
  SimClock::Options clock_options;
  clock_options.auto_advance = true;
  SimClock clock(clock_options);

  // 4 frames at 1 s each. A and B are admitted before Start; the high
  // job arrives at t = 0 from A's frame-0 hook, while B is still
  // waiting. When A frees the runner at 4.0, the high job must start
  // before B: priority decides every start, not admission order.
  const DiningScene scene = MakeDinnerScenario(3, 0.4, 10.0);
  ASSERT_EQ(scene.num_frames(), 4);

  SchedulerOptions options;
  options.clock = &clock;
  options.max_concurrent = 1;
  EventScheduler scheduler(options);

  std::atomic<int> id_high{-1};
  EventJobSpec a = QuickJob("a", &scene, JobPriority::kNormal);
  a.post_frame_hook = [&](int frame, double /*t*/) {
    if (frame == 0) {
      EventJobSpec high = QuickJob("high", &scene, JobPriority::kHigh);
      AddFrameCost(&high, &clock, 1.0);
      id_high = scheduler.Submit(std::move(high));
    }
    clock.SleepFor(VirtualClock::FromSeconds(1.0));
  };
  const int id_a = scheduler.Submit(std::move(a));
  EventJobSpec b = QuickJob("b", &scene, JobPriority::kNormal);
  AddFrameCost(&b, &clock, 1.0);
  const int id_b = scheduler.Submit(std::move(b));

  ASSERT_TRUE(scheduler.RunUntilDrained().ok());

  FleetStats stats = scheduler.stats();
  ASSERT_EQ(stats.completed, 3);
  ASSERT_GE(id_high.load(), 0);
  const JobStats& high = stats.jobs[id_high.load()];
  ASSERT_EQ(stats.jobs[id_a].attempt_started_at_s.size(), 1u);
  ASSERT_EQ(high.attempt_started_at_s.size(), 1u);
  ASSERT_EQ(stats.jobs[id_b].attempt_started_at_s.size(), 1u);
  EXPECT_NEAR(high.admitted_at_s, 0.0, kTolerance);
  EXPECT_NEAR(stats.jobs[id_a].attempt_started_at_s[0], 0.0, kTolerance);
  EXPECT_NEAR(high.attempt_started_at_s[0], 4.0, kTolerance);
  EXPECT_NEAR(stats.jobs[id_b].attempt_started_at_s[0], 8.0, kTolerance);
  EXPECT_NEAR(stats.jobs[id_b].completed_at_s, 12.0, kTolerance);
}

TEST(SchedulerTimelineTest, DeferredLowWaitsWhileARunnerIsIdle) {
  SimClock::Options clock_options;
  clock_options.auto_advance = true;
  SimClock clock(clock_options);

  // Two runners. The slow job commits 8 frames at 0.5 s each, holding
  // the fleet P95 at 0.5 s, above the 0.1 s threshold. The low job
  // arrives from the slow job's frame-1 hook (t = 0.5, two latency
  // samples in). The second runner is free the whole time, but while
  // the slow job runs the overload defers the low job, so it starts
  // exactly when the slow job finishes at 4.0.
  const DiningScene slow_scene = MakeDinnerScenario(3, 0.8, 10.0);
  ASSERT_EQ(slow_scene.num_frames(), 8);
  const DiningScene quick_scene = MakeDinnerScenario(3, 0.2, 10.0);
  ASSERT_EQ(quick_scene.num_frames(), 2);

  SchedulerOptions options;
  options.clock = &clock;
  options.max_concurrent = 2;
  options.defer_latency_above_s = 0.1;
  options.min_latency_samples = 1;
  EventScheduler scheduler(options);

  std::atomic<int> id_low{-1};
  EventJobSpec slow = QuickJob("slow", &slow_scene, JobPriority::kNormal);
  slow.post_frame_hook = [&](int frame, double /*t*/) {
    if (frame == 1) {
      EventJobSpec low = QuickJob("low", &quick_scene, JobPriority::kLow);
      AddFrameCost(&low, &clock, 0.5);
      id_low = scheduler.Submit(std::move(low));
    }
    clock.SleepFor(VirtualClock::FromSeconds(0.5));
  };
  const int id_slow = scheduler.Submit(std::move(slow));

  ASSERT_TRUE(scheduler.RunUntilDrained().ok());

  FleetStats stats = scheduler.stats();
  ASSERT_EQ(stats.completed, 2);
  ASSERT_GE(id_low.load(), 0);
  const JobStats& low = stats.jobs[id_low.load()];
  EXPECT_NEAR(low.admitted_at_s, 0.5, kTolerance);
  ASSERT_EQ(low.attempt_started_at_s.size(), 1u);
  EXPECT_NEAR(low.attempt_started_at_s[0], 4.0, kTolerance);
  EXPECT_NEAR(stats.jobs[id_slow].completed_at_s, 4.0, kTolerance);
  EXPECT_GE(stats.deferred_dispatches, 1);
}

}  // namespace
}  // namespace dievent
