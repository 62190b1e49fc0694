// Fault-injection harness and graceful-degradation tests: the fault
// schedule must be a pure function of the seed, the acquisition policy
// must absorb transient failures (retry, hold-last-good, circuit
// breaker), and the pipeline must keep analyzing above quorum and fail
// with a descriptive status — not a crash — below it.

#include "video/fault_injection.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>

#include "core/pipeline.h"
#include "sim/scenario.h"
#include "video/video_source.h"

namespace dievent {
namespace {

// Sanitizer builds run the pipeline several times slower; deadline-based
// tests scale their clocks so a healthy read still fits its budget.
#ifndef __has_feature
#define __has_feature(x) 0  // GCC signals sanitizers via __SANITIZE_*__
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__) || \
    __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr double kTimingSlack = 10.0;
#else
constexpr double kTimingSlack = 1.0;
#endif

std::vector<ImageRgb> GrayFrames(int n, int w = 8, int h = 8) {
  std::vector<ImageRgb> frames;
  for (int i = 0; i < n; ++i) {
    ImageRgb f(w, h, 3);
    f.Fill(static_cast<uint8_t>(10 + i));
    frames.push_back(std::move(f));
  }
  return frames;
}

std::unique_ptr<FaultyVideoSource> MakeFaulty(FaultSpec spec, int n = 50) {
  return std::make_unique<FaultyVideoSource>(
      std::make_unique<MemoryVideoSource>(GrayFrames(n), 10.0), spec);
}

// --- FaultSpec determinism ---------------------------------------------

TEST(FaultSpec, DropScheduleIsDeterministicInSeed) {
  FaultSpec spec;
  spec.seed = 7;
  spec.drop_probability = 0.3;
  FaultSpec same = spec;
  FaultSpec other = spec;
  other.seed = 8;

  int drops = 0, differs = 0;
  for (int f = 0; f < 400; ++f) {
    EXPECT_EQ(spec.ShouldDrop(f, 0), same.ShouldDrop(f, 0));
    EXPECT_EQ(spec.ShouldDrop(f, 1), same.ShouldDrop(f, 1));
    drops += spec.ShouldDrop(f, 0) ? 1 : 0;
    differs += spec.ShouldDrop(f, 0) != other.ShouldDrop(f, 0) ? 1 : 0;
  }
  // Rate matches the probability (loose band) and the seed matters.
  EXPECT_GT(drops, 400 * 0.3 / 2);
  EXPECT_LT(drops, 400 * 0.3 * 2);
  EXPECT_GT(differs, 0);
}

TEST(FaultSpec, RetryAttemptsDrawFreshDecisions) {
  FaultSpec spec;
  spec.seed = 11;
  spec.drop_probability = 0.5;
  // Some frame must fail on attempt 0 but succeed on attempt 1 — that is
  // what gives a retry budget its value.
  bool recovered = false;
  for (int f = 0; f < 100 && !recovered; ++f) {
    recovered = spec.ShouldDrop(f, 0) && !spec.ShouldDrop(f, 1);
  }
  EXPECT_TRUE(recovered);
}

TEST(FaultSpec, OutageAndFlakyWindowsAreSchedules) {
  FaultSpec spec;
  spec.outage_after_frame = 30;
  spec.flaky_windows = {{5, 8}, {12, 13}};
  EXPECT_FALSE(spec.InScheduledOutage(4));
  EXPECT_TRUE(spec.InScheduledOutage(5));
  EXPECT_TRUE(spec.InScheduledOutage(7));
  EXPECT_FALSE(spec.InScheduledOutage(8));
  EXPECT_TRUE(spec.InScheduledOutage(12));
  EXPECT_FALSE(spec.InScheduledOutage(13));
  EXPECT_FALSE(spec.InScheduledOutage(29));
  EXPECT_TRUE(spec.InScheduledOutage(30));
  EXPECT_TRUE(spec.InScheduledOutage(1000));
}

TEST(FaultSpec, TimestampJitterBoundedAndDeterministic) {
  FaultSpec spec;
  spec.seed = 3;
  spec.timestamp_jitter_s = 0.02;
  bool nonzero = false;
  for (int f = 0; f < 50; ++f) {
    double j = spec.TimestampJitter(f);
    EXPECT_LE(std::abs(j), 0.02);
    EXPECT_DOUBLE_EQ(j, spec.TimestampJitter(f));
    nonzero = nonzero || j != 0.0;
  }
  EXPECT_TRUE(nonzero);
}

TEST(FaultSpec, StallScheduleIsDeterministicInSeed) {
  FaultSpec spec;
  spec.seed = 13;
  spec.stall_probability = 0.25;
  spec.stall_windows = {{40, 42}};
  FaultSpec same = spec;
  FaultSpec other = spec;
  other.seed = 14;

  int stalls = 0, differs = 0;
  for (int f = 0; f < 40; ++f) {
    EXPECT_EQ(spec.ShouldStall(f, 0), same.ShouldStall(f, 0));
    stalls += spec.ShouldStall(f, 0) ? 1 : 0;
    differs += spec.ShouldStall(f, 0) != other.ShouldStall(f, 0) ? 1 : 0;
  }
  EXPECT_GT(stalls, 0);
  EXPECT_GT(differs, 0);
  // Windows stall every attempt regardless of the random draw.
  EXPECT_TRUE(spec.ShouldStall(40, 0));
  EXPECT_TRUE(spec.ShouldStall(41, 3));
  EXPECT_FALSE(FaultSpec{}.HasFaults());
  EXPECT_TRUE(spec.HasFaults());
}

// --- FaultyVideoSource --------------------------------------------------

TEST(FaultyVideoSource, HealthyPathIsTransparent) {
  auto src = MakeFaulty(FaultSpec{});
  auto f = src->GetFrame(3);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().index, 3);
  EXPECT_EQ(f.value().image.at(0, 0, 0), 13);
  EXPECT_DOUBLE_EQ(f.value().timestamp_s, 0.3);
  EXPECT_EQ(src->counters().drops, 0);
}

TEST(FaultyVideoSource, OutageFailsWithIoError) {
  FaultSpec spec;
  spec.outage_after_frame = 10;
  auto src = MakeFaulty(spec);
  EXPECT_TRUE(src->GetFrame(9).ok());
  auto dead = src->GetFrame(10);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kIoError);
  EXPECT_GT(src->counters().outages, 0);
}

TEST(FaultyVideoSource, CorruptionIsReproduciblePerFrame) {
  FaultSpec spec;
  spec.seed = 21;
  spec.corrupt_probability = 1.0;
  spec.corrupt_sigma = 60.0;
  auto a = MakeFaulty(spec);
  auto b = MakeFaulty(spec);
  auto clean = MakeFaulty(FaultSpec{});
  ImageRgb ia = a->GetFrame(4).value().image;
  // Same corruption pattern on every delivery and across instances.
  EXPECT_TRUE(ia == a->GetFrame(4).value().image);
  EXPECT_TRUE(ia == b->GetFrame(4).value().image);
  EXPECT_FALSE(ia == clean->GetFrame(4).value().image);
  EXPECT_EQ(a->counters().corruptions, 2);
  EXPECT_EQ(clean->counters().corruptions, 0);
}

TEST(FaultyVideoSource, StallBlocksAndInterruptCancelsIt) {
  FaultSpec spec;
  spec.stall_windows = {{2, 3}};
  spec.stall_duration_s = 0.05;
  auto src = MakeFaulty(spec);
  // An uncancelled stall elapses and the read still succeeds.
  auto start = std::chrono::steady_clock::now();
  auto f = src->GetFrame(2);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(f.ok());
  EXPECT_GE(elapsed, 0.04);
  EXPECT_EQ(src->counters().stalls, 1);
  EXPECT_EQ(src->counters().interrupts, 0);

  // A pre-posted interrupt cancels the next stall immediately.
  src->Interrupt();
  start = std::chrono::steady_clock::now();
  auto cancelled = src->GetFrame(2);
  elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 0.04);
  EXPECT_EQ(src->counters().interrupts, 1);
  // The flag is one-shot: the stall after the cancelled one runs again.
  EXPECT_TRUE(src->GetFrame(2).ok());
  EXPECT_EQ(src->counters().stalls, 3);
}

TEST(FaultyVideoSource, BlackoutZeroesABand) {
  FaultSpec spec;
  spec.corrupt_probability = 1.0;
  spec.corruption = CorruptionModel::kBlackout;
  auto src = MakeFaulty(spec, 5);
  ImageRgb img = src->GetFrame(0).value().image;
  int zero_rows = 0;
  for (int y = 0; y < img.height(); ++y) {
    bool all_zero = true;
    for (int x = 0; x < img.width(); ++x) {
      all_zero = all_zero && img.at(x, y, 0) == 0;
    }
    zero_rows += all_zero ? 1 : 0;
  }
  EXPECT_GE(zero_rows, img.height() / 4);
  EXPECT_LT(zero_rows, img.height());
}

// --- MultiCameraSource degradation -------------------------------------

std::unique_ptr<VideoSource> Camera(FaultSpec spec, int n = 50) {
  return std::make_unique<FaultyVideoSource>(
      std::make_unique<MemoryVideoSource>(GrayFrames(n), 10.0), spec);
}

TEST(MultiCameraDegradation, RetryRecoversTransientDrop) {
  // Drop every first attempt via a spec that fails attempt 0 but not 1:
  // probability 0.5 gives both cases across 50 frames.
  FaultSpec spec;
  spec.seed = 5;
  spec.drop_probability = 0.5;
  AcquisitionPolicy policy;
  policy.retry_budget = 4;  // enough to beat p=0.5^5
  policy.hold_last_good = false;
  policy.quarantine_after = 100;
  std::vector<std::unique_ptr<VideoSource>> sources;
  sources.push_back(Camera(spec));
  sources.push_back(Camera(FaultSpec{}));
  auto multi = MultiCameraSource::Create(std::move(sources), policy);
  ASSERT_TRUE(multi.ok());

  int retried = 0;
  for (int f = 0; f < 50; ++f) {
    auto set = multi.value().GetFrames(f);
    ASSERT_TRUE(set.ok());
    retried +=
        set.value().cameras[0].status == CameraFrameStatus::kRetried ? 1
                                                                     : 0;
    EXPECT_TRUE(set.value().cameras[1].fresh());
  }
  EXPECT_GT(retried, 0);
  EXPECT_GT(multi.value().health(0).retries, 0);
  // With holding off, no good read pays for a last-good copy.
  EXPECT_FALSE(multi.value().health(0).last_good.has_value());
}

TEST(MultiCameraDegradation, HoldsLastGoodFrameThroughFlakyWindow) {
  FaultSpec spec;
  spec.flaky_windows = {{10, 12}};
  AcquisitionPolicy policy;
  policy.retry_budget = 0;
  policy.hold_last_good = true;
  policy.max_held_age = 5;
  policy.quarantine_after = 3;
  std::vector<std::unique_ptr<VideoSource>> sources;
  sources.push_back(Camera(spec));
  auto multi = MultiCameraSource::Create(std::move(sources), policy);
  ASSERT_TRUE(multi.ok());

  for (int f = 0; f < 10; ++f) ASSERT_TRUE(multi.value().GetFrames(f).ok());
  auto held = multi.value().GetFrames(10);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(held.value().cameras[0].status, CameraFrameStatus::kHeld);
  // The substituted image is frame 9's last good decode.
  EXPECT_EQ(held.value().cameras[0].frame.index, 9);
  EXPECT_EQ(held.value().NumUsable(), 1);
  EXPECT_EQ(held.value().NumFresh(), 0);
  // Error context names the camera and frame.
  EXPECT_NE(held.value().cameras[0].error.message().find("camera 0"),
            std::string::npos);
  EXPECT_NE(held.value().cameras[0].error.message().find("frame 10"),
            std::string::npos);
  // Window over: camera recovers.
  auto back = multi.value().GetFrames(12);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().cameras[0].fresh());
  EXPECT_EQ(multi.value().health(0).held, 1);
}

TEST(MultiCameraDegradation, PumpHoldsTheLastGoodDecodeByteForByte) {
  // Camera 1 fails frames 10 and 11, right after its fresh frame 9. Its
  // decodes carry per-frame noise on a per-pixel pattern, so only frame
  // 9's own decode matches it byte for byte. The held slots must be that
  // decode whether the sets come from GetFrames alone or from the
  // prefetch pump, which captures last-good frames while the next set's
  // reads are out: a capture after the push would copy a set the consumer
  // may already own, and one after the next fold would hold frame 8.
  FaultSpec noisy;
  noisy.seed = 17;
  noisy.corrupt_probability = 1.0;
  noisy.corrupt_sigma = 20.0;
  FaultSpec flaky = noisy;
  flaky.flaky_windows = {{10, 12}};
  auto pattern_camera = [](FaultSpec spec) {
    std::vector<ImageRgb> frames;
    for (int i = 0; i < 16; ++i) {
      ImageRgb f(32, 24, 3);
      for (size_t k = 0; k < f.size(); ++k) {
        f.data()[k] = static_cast<uint8_t>(k * 7 + static_cast<size_t>(i) * 29);
      }
      frames.push_back(std::move(f));
    }
    return std::make_unique<FaultyVideoSource>(
        std::make_unique<MemoryVideoSource>(std::move(frames), 10.0), spec);
  };
  auto reference = pattern_camera(flaky);
  const VideoFrame fresh9 = reference->GetFrame(9).value();
  ASSERT_FALSE(fresh9.image == reference->GetFrame(8).value().image);

  AcquisitionPolicy policy;
  policy.retry_budget = 0;
  policy.hold_last_good = true;
  policy.max_held_age = 5;
  policy.quarantine_after = 3;
  for (bool prefetch : {false, true}) {
    SCOPED_TRACE(prefetch ? "prefetch pump" : "GetFrames alone");
    std::vector<std::unique_ptr<VideoSource>> sources;
    sources.push_back(pattern_camera(noisy));
    sources.push_back(pattern_camera(flaky));
    auto multi = MultiCameraSource::Create(std::move(sources), policy);
    ASSERT_TRUE(multi.ok());
    if (prefetch) {
      ASSERT_TRUE(multi.value().StartPrefetch(0, 1, 2).ok());
    }
    for (int f = 0; f < 13; ++f) {
      auto set = multi.value().GetFrames(f);
      ASSERT_TRUE(set.ok());
      const CameraFrame& slot = set.value().cameras[1];
      if (f < 10 || f == 12) {
        EXPECT_TRUE(slot.fresh()) << "frame " << f;
        continue;
      }
      ASSERT_EQ(slot.status, CameraFrameStatus::kHeld) << "frame " << f;
      EXPECT_EQ(slot.frame.index, 9) << "frame " << f;
      ASSERT_EQ(slot.frame.image.size(), fresh9.image.size());
      EXPECT_EQ(0, std::memcmp(slot.frame.image.data().data(),
                               fresh9.image.data().data(),
                               fresh9.image.size()))
          << "frame " << f;
    }
    multi.value().StopPrefetch();
    EXPECT_EQ(multi.value().health(1).held, 2);
  }
}

TEST(MultiCameraDegradation, CircuitBreakerQuarantinesAndReadmits) {
  FaultSpec spec;
  spec.flaky_windows = {{5, 20}};
  AcquisitionPolicy policy;
  policy.retry_budget = 0;
  policy.hold_last_good = false;
  policy.quarantine_after = 3;
  policy.readmit_after = 10;
  std::vector<std::unique_ptr<VideoSource>> sources;
  sources.push_back(Camera(spec));
  auto multi = MultiCameraSource::Create(std::move(sources), policy);
  ASSERT_TRUE(multi.ok());

  for (int f = 0; f < 5; ++f) ASSERT_TRUE(multi.value().GetFrames(f).ok());
  // Frames 5, 6 fail (missing); frame 7 opens the breaker.
  EXPECT_EQ(multi.value().GetFrames(5).value().cameras[0].status,
            CameraFrameStatus::kMissing);
  EXPECT_EQ(multi.value().GetFrames(6).value().cameras[0].status,
            CameraFrameStatus::kMissing);
  EXPECT_EQ(multi.value().GetFrames(7).value().cameras[0].status,
            CameraFrameStatus::kQuarantined);
  EXPECT_EQ(multi.value().QuarantinedCameras(), std::vector<int>{0});
  // While quarantined the source is not even read.
  auto* injector = static_cast<FaultyVideoSource*>(&multi.value().source(0));
  long long attempts_before = injector->counters().attempts;
  EXPECT_EQ(multi.value().GetFrames(8).value().cameras[0].status,
            CameraFrameStatus::kQuarantined);
  EXPECT_EQ(injector->counters().attempts, attempts_before);
  // Cooldown elapses at frame 17 — probe fails (window runs to 20), so the
  // breaker reopens with a fresh cooldown from 17.
  EXPECT_EQ(multi.value().GetFrames(17).value().cameras[0].status,
            CameraFrameStatus::kQuarantined);
  EXPECT_GT(injector->counters().attempts, attempts_before);
  // Next probe at 27 succeeds: camera readmitted.
  auto back = multi.value().GetFrames(27);
  EXPECT_TRUE(back.value().cameras[0].fresh());
  EXPECT_TRUE(multi.value().QuarantinedCameras().empty());
  EXPECT_EQ(multi.value().health(0).readmissions, 1);
  EXPECT_EQ(multi.value().health(0).quarantine_events, 1);
}

// --- pipeline under faults ----------------------------------------------

PipelineOptions FaultPipelineOptions() {
  PipelineOptions opt;
  opt.mode = PipelineMode::kFullVision;
  opt.analyze_emotions = false;
  opt.parse_video = false;
  opt.frame_stride = 10;  // 61 frames
  opt.eye_contact.angular_tolerance_deg = 12.0;
  return opt;
}

TEST(PipelineUnderFaults, DegradedRunStaysCloseToCleanRun) {
  DiningScene scene = MakeMeetingScenario();

  MetadataRepository repo;
  auto clean = DiEventPipeline(&scene, FaultPipelineOptions()).Run(&repo);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean.value().degradation.frames_degraded, 0);
  EXPECT_EQ(clean.value().degradation.frames_skipped, 0);
  EXPECT_EQ(clean.value().degradation.frames_fully_healthy,
            clean.value().frames_processed);

  // The acceptance scenario: 20% frame drops on one of four cameras.
  PipelineOptions opt = FaultPipelineOptions();
  opt.camera_faults.resize(4);
  opt.camera_faults[1].seed = 404;
  opt.camera_faults[1].drop_probability = 0.2;
  opt.acquisition.retry_budget = 1;
  opt.acquisition.min_camera_quorum = 2;
  auto degraded = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(degraded.ok()) << degraded.status();

  const DegradationStats& deg = degraded.value().degradation;
  EXPECT_EQ(deg.frames_skipped, 0);  // 3 healthy cameras >> quorum
  EXPECT_GT(deg.camera_drops[1], 0);
  EXPECT_EQ(deg.camera_drops[0], 0);
  EXPECT_GT(deg.retries_spent, 0);
  EXPECT_EQ(deg.frames_degraded + deg.frames_fully_healthy,
            degraded.value().frames_processed);
  EXPECT_EQ(degraded.value().frames_processed,
            clean.value().frames_processed);

  // Losing one camera's frames occasionally must not gut the analysis:
  // edge recall stays within 10% of the fault-free run.
  EXPECT_GE(degraded.value().accuracy.edge_recall,
            0.9 * clean.value().accuracy.edge_recall);
  EXPECT_GE(degraded.value().accuracy.gaze_coverage,
            0.8 * clean.value().accuracy.gaze_coverage);

  // The whole degraded run is reproducible from the seeds.
  auto again = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().degradation.frames_degraded,
            deg.frames_degraded);
  EXPECT_EQ(again.value().accuracy.edge_recall,
            degraded.value().accuracy.edge_recall);
}

TEST(PipelineUnderFaults, HeldFramesBridgeAFlakyWindow) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = FaultPipelineOptions();
  opt.camera_faults.resize(4);
  // With stride 10 the pipeline reads frames 0, 10, 20, ...; a window
  // covering [15, 25) fails exactly the read at frame 20.
  opt.camera_faults[2].flaky_windows = {{15, 25}};
  opt.acquisition.retry_budget = 0;
  opt.acquisition.hold_last_good = true;
  opt.acquisition.max_held_age = 10;
  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().degradation.frames_held, 1);
  EXPECT_EQ(report.value().degradation.frames_degraded, 1);
  EXPECT_NE(report.value().Summary().find("degradation"),
            std::string::npos);
}

TEST(PipelineUnderFaults, BelowQuorumReturnsDescriptiveStatus) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = FaultPipelineOptions();
  opt.camera_faults.resize(4);
  // Every camera dies at frame 100 — past that no set reaches quorum.
  for (auto& spec : opt.camera_faults) spec.outage_after_frame = 100;
  opt.acquisition.min_camera_quorum = 2;
  opt.acquisition.quarantine_after = 2;
  opt.acquisition.readmit_after = 0;  // cameras never come back
  opt.acquisition.max_consecutive_below_quorum = 5;
  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("quorum"), std::string::npos);
  EXPECT_NE(report.status().message().find("quarantined"),
            std::string::npos);
}

TEST(PipelineUnderFaults, AllCamerasDeadFromStartFailsCleanly) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = FaultPipelineOptions();
  opt.frame_stride = 100;  // 7 reads — fewer than the abort threshold
  opt.camera_faults.resize(4);
  for (auto& spec : opt.camera_faults) spec.outage_after_frame = 0;
  opt.acquisition.max_consecutive_below_quorum = 100;
  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("quorum"), std::string::npos);
}

TEST(PipelineUnderFaults, StalledCameraIsBoundedByTheReadDeadline) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = FaultPipelineOptions();
  opt.frame_stride = 100;  // 7 synchronized reads
  opt.camera_faults.resize(4);
  // Camera 1 stalls on every attempt; without the supervisor each stalled
  // read would serialize the whole frame set for 0.5s.
  opt.camera_faults[1].stall_probability = 1.0;
  opt.camera_faults[1].stall_duration_s = 0.5 * kTimingSlack;
  opt.acquisition.read_deadline_s = 0.03 * kTimingSlack;
  opt.acquisition.retry_budget = 0;
  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();

  const DegradationStats& deg = report.value().degradation;
  EXPECT_GT(deg.deadline_misses, 0);
  EXPECT_GT(deg.frames_degraded, 0);
  EXPECT_EQ(deg.frames_skipped, 0);  // three healthy cameras carry quorum
  // Bounded by the deadline, not by 7 x 0.5s of stalling.
  EXPECT_LT(report.value().timings.acquisition, 2.0 * kTimingSlack);
  EXPECT_NE(deg.ToString().find("supervisor"), std::string::npos);
}

TEST(PipelineUnderFaults, JitteredClockIsResyncedToMasterClock) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = FaultPipelineOptions();
  opt.camera_faults.resize(4);
  opt.camera_faults[2].seed = 31;
  opt.camera_faults[2].timestamp_jitter_s = 0.015;
  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();
  const DegradationStats& deg = report.value().degradation;
  EXPECT_GT(deg.resync_corrections, 0);
  EXPECT_EQ(deg.resync_misalignments, 0);  // jitter stays under half period
  EXPECT_GT(deg.max_timestamp_jitter_s, 0.0);
  EXPECT_LE(deg.max_timestamp_jitter_s, 0.015);
  EXPECT_NE(deg.ToString().find("clock resync"), std::string::npos);
}

TEST(PipelineUnderFaults, ParsingSurvivesReferenceCameraLoss) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = FaultPipelineOptions();
  opt.parse_video = true;
  opt.camera_faults.resize(4);
  // Camera 0 (the parsing reference) is dead for stride-frames 20 and 30;
  // held frames cannot bridge a 10-frame stride with max_held_age 5, so
  // those slots lose their camera-0 signature entirely.
  opt.camera_faults[0].flaky_windows = {{15, 35}};
  opt.acquisition.retry_budget = 0;
  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();

  const DegradationStats& deg = report.value().degradation;
  EXPECT_EQ(deg.parse_reference_switches, 2);  // signed by camera 1 instead
  EXPECT_EQ(deg.parse_signatures_missing, 0);
  // The timeline keeps one slot per processed frame — no silent
  // compaction shifting later shot boundaries.
  EXPECT_EQ(report.value().structure.num_frames,
            report.value().frames_processed);
}

TEST(PipelineUnderFaults, EpisodesSpanningAnOutageLoseConfidence) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = FaultPipelineOptions();
  opt.camera_faults.resize(4);
  // Every camera fails at stride-frame 20: that set is below quorum and
  // skipped, so episodes bridging it were not actually observed there.
  for (auto& spec : opt.camera_faults) spec.flaky_windows = {{15, 25}};
  opt.acquisition.retry_budget = 0;
  opt.acquisition.max_held_age = 0;
  opt.acquisition.hold_last_good = false;
  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().degradation.frames_skipped, 1);

  bool spanning_episode_flagged = true;
  for (const EyeContactEpisode& episode :
       report.value().eye_contact_episodes) {
    EXPECT_GE(episode.confidence, 0.0);
    EXPECT_LE(episode.confidence, 1.0);
    if (episode.begin_frame <= 20 && episode.end_frame > 20) {
      spanning_episode_flagged = spanning_episode_flagged &&
                                 episode.skipped_frames >= 1 &&
                                 episode.confidence < 1.0;
    }
  }
  EXPECT_TRUE(spanning_episode_flagged);
}

TEST(PipelineUnderFaults, RejectsMismatchedFaultSpecCount) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = FaultPipelineOptions();
  opt.camera_faults.resize(2);  // rig has 4 cameras
  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dievent
