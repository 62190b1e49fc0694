// Async acquisition supervisor tests: a stalled camera must cost the
// caller the configured deadline (not the stall) — pinned exactly under
// SimClock — the watchdog must interrupt and replace a wedged reader, a
// quarantined camera must be probed every `readmit_after` frames, and
// delivered timestamps must land back on the master clock. The SPSC
// queue and backoff primitives are pinned directly.

#include "video/acquisition_supervisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "analysis/eye_contact.h"
#include "common/backoff.h"
#include "common/clock.h"
#include "common/spsc_queue.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "video/clock_resync.h"
#include "video/fault_injection.h"
#include "video/parser.h"
#include "video/video_source.h"

namespace dievent {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<ImageRgb> GrayFrames(int n, int w = 8, int h = 8) {
  std::vector<ImageRgb> frames;
  for (int i = 0; i < n; ++i) {
    ImageRgb f(w, h, 3);
    f.Fill(static_cast<uint8_t>(10 + i));
    frames.push_back(std::move(f));
  }
  return frames;
}

std::unique_ptr<VideoSource> Camera(FaultSpec spec, int n = 50) {
  return std::make_unique<FaultyVideoSource>(
      std::make_unique<MemoryVideoSource>(GrayFrames(n), 10.0), spec);
}

// --- SPSC queue ----------------------------------------------------------

TEST(SpscQueue, FifoOrderAndCapacity) {
  SpscQueue<int> q(4);
  EXPECT_TRUE(q.EmptyApprox());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(int(i)));
  EXPECT_FALSE(q.TryPush(99));  // full
  EXPECT_EQ(q.SizeApprox(), 4u);
  for (int i = 0; i < 4; ++i) {
    auto v = q.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(SpscQueue, SurvivesConcurrentProducerConsumer) {
  SpscQueue<int> q(8);
  constexpr int kCount = 20000;
  std::thread producer([&] {
    for (int i = 0; i < kCount;) {
      if (q.TryPush(int(i))) ++i;
    }
  });
  int expected = 0;
  while (expected < kCount) {
    if (auto v = q.TryPop()) {
      ASSERT_EQ(*v, expected);  // order and value preserved
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(q.EmptyApprox());
}

// --- backoff -------------------------------------------------------------

TEST(Backoff, DeterministicExponentialWithBoundedJitter) {
  BackoffPolicy policy;
  policy.base_s = 0.010;
  policy.max_s = 0.100;
  policy.multiplier = 2.0;
  policy.jitter = 0.5;
  policy.seed = 9;

  EXPECT_EQ(policy.Delay(0, 0, 0), 0.0);
  double prev_nominal = 0.0;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double d = policy.Delay(attempt, /*stream=*/2, /*op=*/7);
    EXPECT_DOUBLE_EQ(d, policy.Delay(attempt, 2, 7));  // pure function
    const double nominal =
        std::min(policy.max_s, policy.base_s * std::pow(2.0, attempt - 1));
    EXPECT_GE(d, nominal * 0.5);
    EXPECT_LE(d, nominal * 1.5);
    EXPECT_GE(nominal, prev_nominal);
    prev_nominal = nominal;
  }
  // Different streams decorrelate.
  EXPECT_NE(policy.Delay(3, 2, 7), policy.Delay(3, 3, 7));
}

// --- timestamp resampler -------------------------------------------------

TEST(TimestampResampler, RemovesSubHalfPeriodJitterExactly) {
  TimestampResampler resampler(10.0);  // period 0.1s
  for (int f = 0; f < 40; ++f) {
    VideoFrame frame;
    frame.index = f;
    frame.timestamp_s = f * 0.1 + (f % 2 == 0 ? 0.03 : -0.04);
    resampler.Align(f, &frame);
    EXPECT_DOUBLE_EQ(frame.timestamp_s, f * 0.1);
  }
  EXPECT_EQ(resampler.stats().corrections, 40);
  EXPECT_EQ(resampler.stats().misalignments, 0);
  EXPECT_NEAR(resampler.stats().max_jitter_s, 0.04, 1e-12);
  EXPECT_DOUBLE_EQ(resampler.stats().max_residual_s, 0.0);
}

TEST(TimestampResampler, CountsMisalignmentsBeyondHalfPeriod) {
  TimestampResampler resampler(10.0);
  VideoFrame frame;
  frame.index = 5;
  frame.timestamp_s = 5 * 0.1 + 0.12;  // more than one tick off
  resampler.Align(5, &frame);
  EXPECT_DOUBLE_EQ(frame.timestamp_s, 6 * 0.1);  // snapped to nearest tick
  EXPECT_EQ(resampler.stats().misalignments, 1);
}

TEST(TimestampResampler, DriftEstimateTracksConstantSkew) {
  TimestampResampler resampler(10.0, /*drift_alpha=*/0.2);
  for (int f = 0; f < 60; ++f) {
    VideoFrame frame;
    frame.index = f;
    frame.timestamp_s = f * 0.1 + 0.02;  // constant +20ms skew
    resampler.Align(f, &frame);
  }
  EXPECT_NEAR(resampler.stats().drift_estimate_s, 0.02, 1e-4);
}

TEST(TimestampResampler, ConstantSkewIsCorrectedEveryFrame) {
  // A constant skew is snapped back on every frame: the mapping to the
  // master clock is fixed, so the skew never folds away.
  TimestampResampler resampler(10.0, /*drift_alpha=*/1.0);
  for (int f = 0; f < 30; ++f) {
    VideoFrame frame;
    frame.index = f;
    frame.timestamp_s = f * 0.1 + 0.02;
    resampler.Align(f, &frame);
    EXPECT_DOUBLE_EQ(frame.timestamp_s, f * 0.1) << "frame " << f;
  }
  EXPECT_EQ(resampler.stats().corrections, 30);
}

// --- deadline conversion -------------------------------------------------

TEST(AcquisitionSupervisor, StalledCameraBecomesDeadlineBoundedHold) {
  // Camera 0 stalls 2s on frame 10; the synchronized read must cost the
  // 50ms deadline, not the stall, and the slot degrades to an ordinary
  // held frame.
  FaultSpec stall;
  stall.stall_windows = {{10, 11}};
  stall.stall_duration_s = 2.0;
  AcquisitionPolicy policy;
  policy.retry_budget = 0;
  policy.hold_last_good = true;
  policy.max_held_age = 5;
  policy.read_deadline_s = 0.05;
  std::vector<std::unique_ptr<VideoSource>> sources;
  sources.push_back(Camera(stall));
  sources.push_back(Camera(FaultSpec{}));
  auto multi = MultiCameraSource::Create(std::move(sources), policy);
  ASSERT_TRUE(multi.ok());

  for (int f = 0; f < 10; ++f) {
    auto set = multi.value().GetFrames(f);
    ASSERT_TRUE(set.ok());
    EXPECT_TRUE(set.value().cameras[0].fresh());
  }

  const Clock::time_point start = Clock::now();
  auto set = multi.value().GetFrames(10);
  const double elapsed = SecondsSince(start);
  ASSERT_TRUE(set.ok());
  EXPECT_LT(elapsed, 1.0);  // bounded by the deadline, not the 2s stall
  EXPECT_EQ(set.value().cameras[0].status, CameraFrameStatus::kHeld);
  EXPECT_EQ(set.value().cameras[0].frame.index, 9);
  EXPECT_TRUE(set.value().cameras[1].fresh());  // healthy camera unaffected
  EXPECT_EQ(set.value().cameras[0].error.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(multi.value().health(0).failures, 1);
  ASSERT_NE(multi.value().supervisor(), nullptr);
  EXPECT_GE(multi.value().supervisor()->stats(0).deadline_misses, 1);
  EXPECT_EQ(multi.value().supervisor()->stats(1).deadline_misses, 0);
}

TEST(AcquisitionSupervisor, DestructionWithWedgedReaderDoesNotHang) {
  FaultSpec stall;
  stall.stall_windows = {{0, 1}};
  stall.stall_duration_s = 30.0;
  AcquisitionPolicy policy;
  policy.retry_budget = 0;
  policy.read_deadline_s = 0.02;
  std::vector<std::unique_ptr<VideoSource>> sources;
  sources.push_back(Camera(stall));
  const Clock::time_point start = Clock::now();
  {
    auto multi = MultiCameraSource::Create(std::move(sources), policy);
    ASSERT_TRUE(multi.ok());
    auto set = multi.value().GetFrames(0);  // reader now wedged in the stall
    ASSERT_TRUE(set.ok());
    EXPECT_FALSE(set.value().cameras[0].usable());
  }  // destructor interrupts the stall and joins
  EXPECT_LT(SecondsSince(start), 5.0);
}

// --- the static deadline under SimClock ----------------------------------

/// A camera whose reads take a fixed simulated latency: GetFrame sleeps on
/// the injected clock, so under SimClock the read costs exactly that much
/// simulated time and no wall time.
class SlowSource : public VideoSource {
 public:
  SlowSource(VirtualClock* clock, double latency_s)
      : clock_(clock), latency_s_(latency_s) {}

  int NumFrames() const override { return 50; }
  double Fps() const override { return 10.0; }
  Result<VideoFrame> GetFrame(int index) override {
    clock_->SleepFor(VirtualClock::FromSeconds(latency_s_));
    VideoFrame f;
    f.index = index;
    f.timestamp_s = index / Fps();
    f.image = ImageRgb(4, 4, 3);
    return f;
  }

 private:
  VirtualClock* clock_;
  const double latency_s_;
};

/// A camera that never answers: GetFrame parks in an untimed clock wait
/// until Interrupt(). Untimed, so SimClock auto-advance never steps time
/// on its behalf — the clock moves only for the caller's deadline.
class WedgedSource : public VideoSource {
 public:
  explicit WedgedSource(VirtualClock* clock) : clock_(clock) {}

  int NumFrames() const override { return 50; }
  double Fps() const override { return 10.0; }
  Result<VideoFrame> GetFrame(int index) override {
    MutexLock lock(mutex_);
    while (!interrupted_) clock_->Wait(mutex_, cv_);
    return Status::Cancelled(StrFormat("frame %d interrupted", index));
  }
  void Interrupt() override {
    MutexLock lock(mutex_);
    interrupted_ = true;
    clock_->NotifyAll(mutex_, cv_);
  }

 private:
  VirtualClock* clock_;
  Mutex mutex_{LockRank::kSourceInterrupt};
  CondVar cv_;
  bool interrupted_ GUARDED_BY(mutex_) = false;
};

TEST(AcquisitionSupervisor, StaticDeadlineCutsOffTheStalledCameraExactly) {
  // Camera 0 answers in 10ms, camera 1 never does. The one deadline
  // shared by both cameras ends the read at exactly 30ms of simulated
  // time: camera 0's frame is kept, camera 1 is a deadline miss.
  SimClock::Options sim_options;
  sim_options.auto_advance = true;
  SimClock sim(sim_options);
  SlowSource fast(&sim, 0.01);
  WedgedSource stalled(&sim);
  SupervisorOptions options;
  options.read_deadline_s = 0.03;
  options.clock = &sim;
  AcquisitionSupervisor supervisor({&fast, &stalled}, options);

  std::vector<AcquisitionSupervisor::ReadOutcome> out =
      supervisor.Read(0, {1, 1});
  EXPECT_EQ(sim.Now().time_since_epoch(), VirtualClock::FromSeconds(0.03));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].ok()) << out[0].error;
  EXPECT_FALSE(out[0].deadline_missed);
  EXPECT_FALSE(out[1].ok());
  EXPECT_TRUE(out[1].deadline_missed);
  EXPECT_EQ(out[1].error.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(out[1].error.message().find("no response within 0.030s"),
            std::string::npos)
      << out[1].error;
  EXPECT_EQ(supervisor.stats(0).deadline_misses, 0);
  EXPECT_EQ(supervisor.stats(1).deadline_misses, 1);
}

TEST(AcquisitionSupervisor, HealthyReadsTakeExactlyTheirSimulatedLatency) {
  // Reads well inside the deadline cost their own latency, never the
  // deadline: 10 reads of 1ms take exactly 10ms of simulated time.
  SimClock::Options sim_options;
  sim_options.auto_advance = true;
  SimClock sim(sim_options);
  SlowSource source(&sim, 0.001);
  SupervisorOptions options;
  options.read_deadline_s = 0.05;
  options.clock = &sim;
  AcquisitionSupervisor supervisor({&source}, options);
  for (int f = 0; f < 10; ++f) {
    std::vector<AcquisitionSupervisor::ReadOutcome> out =
        supervisor.Read(f, {1});
    ASSERT_TRUE(out[0].ok()) << "frame " << f << ": " << out[0].error;
  }
  EXPECT_EQ(sim.Now().time_since_epoch(),
            10 * VirtualClock::FromSeconds(0.001));
  EXPECT_EQ(supervisor.stats(0).deadline_misses, 0);
}

TEST(AcquisitionPolicy, CreateValidatesTheReadDeadline) {
  auto make = [](double read_deadline_s) {
    AcquisitionPolicy policy;
    policy.read_deadline_s = read_deadline_s;
    std::vector<std::unique_ptr<VideoSource>> sources;
    sources.push_back(
        std::make_unique<MemoryVideoSource>(std::vector<ImageRgb>(4), 10.0));
    return MultiCameraSource::Create(std::move(sources), policy);
  };
  EXPECT_TRUE(make(0.05).ok());
  EXPECT_TRUE(make(0.0).ok());  // unbounded
  EXPECT_EQ(make(-0.01).status().code(), StatusCode::kInvalidArgument);
}

// --- watchdog restart ----------------------------------------------------

TEST(AcquisitionSupervisor, WatchdogInterruptsAndRestartsWedgedReader) {
  FaultSpec stall;
  stall.stall_windows = {{0, 1}};  // only frame 0 wedges
  stall.stall_duration_s = 30.0;
  AcquisitionPolicy policy;
  policy.retry_budget = 0;
  policy.hold_last_good = false;
  policy.quarantine_after = 1000;  // keep the breaker out of the picture
  policy.read_deadline_s = 0.02;
  std::vector<std::unique_ptr<VideoSource>> sources;
  sources.push_back(Camera(stall));
  auto multi = MultiCameraSource::Create(std::move(sources), policy);
  ASSERT_TRUE(multi.ok());

  ASSERT_FALSE(multi.value().GetFrames(0).value().cameras[0].usable());

  // Keep reading; once the reader has been busy past the watchdog
  // threshold it is interrupted, exits, and a fresh reader takes over.
  bool recovered = false;
  for (int f = 1; f < 40 && !recovered; ++f) {
    auto set = multi.value().GetFrames(f);
    ASSERT_TRUE(set.ok());
    recovered = set.value().cameras[0].fresh();
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  }
  EXPECT_TRUE(recovered);

  const AcquisitionSupervisor::ReaderStats stats =
      multi.value().supervisor()->stats(0);
  EXPECT_GE(stats.watchdog_interrupts, 1);
  EXPECT_GE(stats.restarts, 1);
  EXPECT_NE(stats.last_restart_reason.find("wedged"), std::string::npos);
  auto* injector = static_cast<FaultyVideoSource*>(&multi.value().source(0));
  EXPECT_GE(injector->counters().interrupts, 1);
}

// --- readmission sequencing ----------------------------------------------

TEST(AcquisitionSupervisor, ConstantCooldownIsTheDefault) {
  // A quarantined camera is probed every readmit_after frames, however
  // many probes have failed before.
  FaultSpec spec;
  spec.flaky_windows = {{0, 22}};
  AcquisitionPolicy policy;
  policy.retry_budget = 0;
  policy.hold_last_good = false;
  policy.quarantine_after = 1;
  policy.readmit_after = 5;
  std::vector<std::unique_ptr<VideoSource>> sources;
  sources.push_back(Camera(spec, /*n=*/40));
  auto multi = MultiCameraSource::Create(std::move(sources), policy);
  ASSERT_TRUE(multi.ok());
  auto* injector = static_cast<FaultyVideoSource*>(&multi.value().source(0));

  std::vector<int> probed_at;
  long long last_attempts = 0;
  for (int f = 0; f <= 25; ++f) {  // stop at the successful probe
    ASSERT_TRUE(multi.value().GetFrames(f).ok());
    const long long attempts = injector->counters().attempts;
    if (attempts != last_attempts) probed_at.push_back(f);
    last_attempts = attempts;
  }
  EXPECT_EQ(probed_at, (std::vector<int>{0, 5, 10, 15, 20, 25}));
}

// --- clock re-sync through the synchronized read -------------------------

TEST(AcquisitionSupervisor, ResyncAlignsJitteredCameraToMasterClock) {
  FaultSpec jittery;
  jittery.seed = 17;
  jittery.timestamp_jitter_s = 0.03;  // under half the 0.1s period
  std::vector<std::unique_ptr<VideoSource>> sources;
  sources.push_back(Camera(jittery));
  sources.push_back(Camera(FaultSpec{}));
  auto multi = MultiCameraSource::Create(std::move(sources),
                                         AcquisitionPolicy{});
  ASSERT_TRUE(multi.ok());

  for (int f = 0; f < 30; ++f) {
    auto set = multi.value().GetFrames(f);
    ASSERT_TRUE(set.ok());
    // Jitter below half a frame period is corrected exactly.
    EXPECT_DOUBLE_EQ(set.value().cameras[0].frame.timestamp_s,
                     f * (1.0 / 10.0));
  }
  const TimestampResampler::Stats& stats =
      multi.value().resampler(0).stats();
  EXPECT_GT(stats.corrections, 0);
  EXPECT_EQ(stats.misalignments, 0);
  EXPECT_LE(stats.max_jitter_s, 0.03);
  EXPECT_GT(stats.max_jitter_s, 0.0);
}

TEST(AcquisitionSupervisor, ResyncCanBeDisabled) {
  FaultSpec jittery;
  jittery.seed = 17;
  jittery.timestamp_jitter_s = 0.03;
  AcquisitionPolicy policy;
  policy.resync_timestamps = false;
  std::vector<std::unique_ptr<VideoSource>> sources;
  sources.push_back(Camera(jittery));
  auto multi = MultiCameraSource::Create(std::move(sources), policy);
  ASSERT_TRUE(multi.ok());
  bool saw_jitter = false;
  for (int f = 0; f < 20; ++f) {
    auto set = multi.value().GetFrames(f);
    ASSERT_TRUE(set.ok());
    saw_jitter = saw_jitter || std::abs(set.value().cameras[0].frame.timestamp_s -
                                        f * (1.0 / 10.0)) > 1e-6;
  }
  EXPECT_TRUE(saw_jitter);
  EXPECT_EQ(multi.value().resampler(0).stats().frames_seen, 0);
}

// --- sparse-signature parsing --------------------------------------------

Histogram TwoBin(double a, double b) {
  Histogram h;
  h.bins = {a, b};
  return h;
}

TEST(SparseParsing, InterpolatedGapsPreserveShotTiming) {
  // One hard cut at frame 15. Dropping frames 7-9 must neither shift the
  // boundary (the old behavior compacted the timeline) nor invent a cut
  // inside the interpolated gap.
  VideoParserOptions options;
  options.shot.threshold_mode = ThresholdMode::kFixed;
  options.shot.fixed_threshold = 0.25;
  std::vector<Histogram> dense;
  std::vector<std::optional<Histogram>> sparse;
  for (int f = 0; f < 30; ++f) {
    Histogram h = f < 15 ? TwoBin(1.0, 0.0) : TwoBin(0.0, 1.0);
    dense.push_back(h);
    if (f >= 7 && f <= 9) {
      sparse.push_back(std::nullopt);
    } else {
      sparse.push_back(h);
    }
  }
  VideoParser parser(options);
  VideoStructure reference = parser.ParseFromHistograms(dense, 10.0);
  SparseSignatureInfo info;
  VideoStructure repaired =
      parser.ParseFromSparseHistograms(sparse, 10.0, &info);

  EXPECT_EQ(info.total, 30);
  EXPECT_EQ(info.missing, 3);
  EXPECT_EQ(info.interpolated, 3);
  EXPECT_EQ(info.extrapolated, 0);
  EXPECT_EQ(info.longest_gap, 3);

  std::vector<Shot> ref_shots = reference.AllShots();
  std::vector<Shot> rep_shots = repaired.AllShots();
  ASSERT_EQ(rep_shots.size(), ref_shots.size());
  for (size_t i = 0; i < ref_shots.size(); ++i) {
    EXPECT_EQ(rep_shots[i].begin_frame, ref_shots[i].begin_frame);
    EXPECT_EQ(rep_shots[i].end_frame, ref_shots[i].end_frame);
  }
}

TEST(SparseParsing, LeadingAndTrailingGapsAreClamped) {
  VideoParserOptions options;
  options.shot.threshold_mode = ThresholdMode::kFixed;
  options.shot.fixed_threshold = 0.25;
  std::vector<std::optional<Histogram>> sparse(12);
  for (int f = 3; f < 10; ++f) sparse[f] = TwoBin(1.0, 0.0);
  SparseSignatureInfo info;
  VideoParser parser(options);
  VideoStructure out = parser.ParseFromSparseHistograms(sparse, 10.0, &info);
  EXPECT_EQ(info.missing, 5);
  EXPECT_EQ(info.extrapolated, 5);
  EXPECT_EQ(info.interpolated, 0);
  EXPECT_EQ(out.num_frames, 12);
  EXPECT_EQ(out.NumShots(), 1);  // clamped edges cannot fake a cut
}

TEST(SparseParsing, AllMissingYieldsEmptyStructure) {
  std::vector<std::optional<Histogram>> sparse(6);
  SparseSignatureInfo info;
  VideoParser parser;
  VideoStructure out = parser.ParseFromSparseHistograms(sparse, 10.0, &info);
  EXPECT_EQ(info.missing, 6);
  EXPECT_EQ(out.num_frames, 6);
  EXPECT_EQ(out.NumShots(), 0);
}

// --- episode confidence annotation ---------------------------------------

TEST(EpisodeAnnotation, ConfidenceReflectsAcquisitionHealth) {
  std::vector<EyeContactEpisode> episodes(2);
  episodes[0].a = 0;
  episodes[0].b = 1;
  episodes[0].begin_frame = 0;
  episodes[0].end_frame = 10;
  episodes[1].a = 1;
  episodes[1].b = 2;
  episodes[1].begin_frame = 20;
  episodes[1].end_frame = 24;

  std::vector<FrameHealthRecord> timeline;
  for (int f = 0; f < 10; ++f) {
    AcquisitionFrameHealth h = AcquisitionFrameHealth::kHealthy;
    if (f == 3 || f == 4) h = AcquisitionFrameHealth::kDegraded;
    if (f == 5) h = AcquisitionFrameHealth::kSkipped;
    timeline.push_back({f, h});
  }
  AnnotateEpisodeAcquisition(&episodes, timeline);

  EXPECT_EQ(episodes[0].degraded_frames, 2);
  EXPECT_EQ(episodes[0].skipped_frames, 1);
  EXPECT_DOUBLE_EQ(episodes[0].confidence, 0.7);
  // Episode outside the timeline keeps full confidence.
  EXPECT_EQ(episodes[1].degraded_frames, 0);
  EXPECT_DOUBLE_EQ(episodes[1].confidence, 1.0);
}

}  // namespace
}  // namespace dievent
