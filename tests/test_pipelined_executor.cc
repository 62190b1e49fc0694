// Pipelined streaming executor tests: with worker threads and acquisition
// prefetch enabled, the pipeline must produce byte-identical reports and
// repository contents to the sequential reference executor — on clean
// runs, under injected faults, and on the failure path (a below-quorum
// collapse must fail at the same frame with the same message; a
// cancellation must stop after the same frame and name the same one).

#include <gtest/gtest.h>

#include <string>

#include "common/cancellation.h"
#include "core/pipeline.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

PipelineOptions BaseOptions() {
  PipelineOptions opt;
  opt.mode = PipelineMode::kFullVision;
  opt.frame_stride = 10;  // 61 frames
  opt.eye_contact.angular_tolerance_deg = 12.0;
  opt.analyze_emotions = false;
  opt.parse_video = false;
  return opt;
}

/// One shared recognizer so no run pays for training (and all runs agree
/// on the network bit for bit).
const EmotionRecognizer& SharedRecognizer() {
  static const EmotionRecognizer* recognizer = [] {
    EmotionRecognizerOptions opt;
    opt.hidden_units = 16;
    opt.samples_per_class = 24;
    opt.train.epochs = 6;
    Rng rng(42);
    auto trained = EmotionRecognizer::Train(opt, &rng);
    EXPECT_TRUE(trained.ok()) << trained.status();
    return new EmotionRecognizer(std::move(trained).TakeValue());
  }();
  return *recognizer;
}

struct RunResult {
  DiEventReport report;
  MetadataRepository repo;
};

RunResult RunPipeline(const DiningScene& scene, PipelineOptions opt, int threads,
              int prefetch) {
  opt.num_threads = threads;
  opt.prefetch_depth = prefetch;
  RunResult out;
  auto report = DiEventPipeline(&scene, opt).Run(&out.repo);
  EXPECT_TRUE(report.ok()) << report.status();
  if (report.ok()) out.report = std::move(report).TakeValue();
  return out;
}

/// Stage timings are wall-clock and differ run to run by construction;
/// everything else in the summary must match byte for byte.
void ZeroTimings(DiEventReport* report) { report->timings = StageTimings{}; }

/// Supervisor mechanism counters (deadline misses, watchdog interrupts,
/// reader restarts, queue depth) measure wall-clock behavior of stalled
/// reads, not folded outcomes; under stall faults they are the only
/// fields allowed to differ between executors.
void ZeroMechanismCounters(DiEventReport* report) {
  report->degradation.deadline_misses = 0;
  report->degradation.watchdog_interrupts = 0;
  report->degradation.reader_restarts = 0;
  report->degradation.max_queue_depth = 0;
}

void ExpectSameRepository(const MetadataRepository& a,
                          const MetadataRepository& b) {
  ASSERT_EQ(a.lookat_records().size(), b.lookat_records().size());
  for (size_t i = 0; i < a.lookat_records().size(); ++i) {
    const LookAtRecord& x = a.lookat_records()[i];
    const LookAtRecord& y = b.lookat_records()[i];
    EXPECT_EQ(x.frame, y.frame) << "lookat record " << i;
    EXPECT_EQ(x.timestamp_s, y.timestamp_s) << "lookat record " << i;
    EXPECT_TRUE(x.cells == y.cells) << "lookat record " << i;
  }
  ASSERT_EQ(a.emotion_records().size(), b.emotion_records().size());
  for (size_t i = 0; i < a.emotion_records().size(); ++i) {
    const EmotionRecord& x = a.emotion_records()[i];
    const EmotionRecord& y = b.emotion_records()[i];
    EXPECT_EQ(x.frame, y.frame) << "emotion record " << i;
    EXPECT_EQ(x.participant, y.participant) << "emotion record " << i;
    EXPECT_EQ(x.emotion, y.emotion) << "emotion record " << i;
    EXPECT_EQ(x.confidence, y.confidence) << "emotion record " << i;
  }
  ASSERT_EQ(a.overall_records().size(), b.overall_records().size());
  for (size_t i = 0; i < a.overall_records().size(); ++i) {
    const OverallEmotionRecord& x = a.overall_records()[i];
    const OverallEmotionRecord& y = b.overall_records()[i];
    EXPECT_EQ(x.frame, y.frame) << "overall record " << i;
    EXPECT_EQ(x.overall_happiness, y.overall_happiness)
        << "overall record " << i;
    EXPECT_EQ(x.mean_valence, y.mean_valence) << "overall record " << i;
    EXPECT_EQ(x.observed, y.observed) << "overall record " << i;
  }
}

void ExpectSameRun(RunResult reference, RunResult candidate) {
  ZeroTimings(&reference.report);
  ZeroTimings(&candidate.report);
  EXPECT_EQ(reference.report.Summary(), candidate.report.Summary());
  EXPECT_EQ(reference.report.frames_processed,
            candidate.report.frames_processed);
  EXPECT_EQ(reference.report.accuracy.lookat_cell_accuracy,
            candidate.report.accuracy.lookat_cell_accuracy);
  EXPECT_EQ(reference.report.accuracy.mean_gaze_error_deg,
            candidate.report.accuracy.mean_gaze_error_deg);
  EXPECT_EQ(reference.report.accuracy.emotion_accuracy,
            candidate.report.accuracy.emotion_accuracy);
  EXPECT_EQ(reference.report.degradation.frames_degraded,
            candidate.report.degradation.frames_degraded);
  EXPECT_EQ(reference.report.degradation.frames_skipped,
            candidate.report.degradation.frames_skipped);
  ExpectSameRepository(reference.repo, candidate.repo);
}

TEST(PipelinedExecutor, CleanRunMatchesSequentialBitForBit) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = BaseOptions();
  opt.analyze_emotions = true;
  opt.recognizer = &SharedRecognizer();
  opt.parse_video = true;

  RunResult sequential = RunPipeline(scene, opt, /*threads=*/1, /*prefetch=*/0);
  EXPECT_GT(sequential.repo.emotion_records().size(), 0u);
  EXPECT_GT(sequential.report.structure.num_frames, 0);
  // Threads only, prefetch only, and both together must all reproduce
  // the sequential run exactly.
  ExpectSameRun(sequential, RunPipeline(scene, opt, 4, 0));
  ExpectSameRun(sequential, RunPipeline(scene, opt, 1, 4));
  ExpectSameRun(sequential, RunPipeline(scene, opt, 4, 4));
}

TEST(PipelinedExecutor, OutageAndDropFaultsMatchSequential) {
  // Fault folding (retries, hold-last-good, breaker transitions) is part
  // of the determinism contract: the prefetch pump replays the identical
  // admission/read/fold sequence, so even degraded runs match exactly.
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = BaseOptions();
  opt.camera_faults.resize(4);
  opt.camera_faults[1].seed = 404;
  opt.camera_faults[1].drop_probability = 0.2;
  opt.camera_faults[2].flaky_windows = {{15, 35}};
  opt.camera_faults[3].outage_after_frame = 400;
  opt.acquisition.retry_budget = 1;
  opt.acquisition.min_camera_quorum = 2;
  opt.acquisition.quarantine_after = 2;

  RunResult sequential = RunPipeline(scene, opt, 1, 0);
  EXPECT_GT(sequential.report.degradation.frames_degraded, 0);
  RunResult pipelined = RunPipeline(scene, opt, 4, 4);
  EXPECT_EQ(sequential.report.degradation.camera_drops,
            pipelined.report.degradation.camera_drops);
  EXPECT_EQ(sequential.report.degradation.retries_spent,
            pipelined.report.degradation.retries_spent);
  EXPECT_EQ(sequential.report.degradation.quarantine_events,
            pipelined.report.degradation.quarantine_events);
  ExpectSameRun(std::move(sequential), std::move(pipelined));
}

TEST(PipelinedExecutor, StallFaultsMatchSequentialOutcomes) {
  // A stalled camera is cut off by the read deadline in both executors.
  // The folded outcomes (missing slots, degraded frames, breaker state)
  // must match; only the mechanism counters may differ. Every run gets a
  // fresh auto-advancing SimClock, so the stall and the deadline are
  // simulated: the 0.5s stall costs no wall time, and the verdicts no
  // longer depend on machine load (this test was the suite's one flake
  // under parallel ctest).
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = BaseOptions();
  opt.frame_stride = 100;  // 7 synchronized reads
  opt.camera_faults.resize(4);
  opt.camera_faults[1].stall_probability = 1.0;
  opt.camera_faults[1].stall_duration_s = 0.5;
  opt.acquisition.read_deadline_s = 0.03;
  opt.acquisition.retry_budget = 0;

  auto run_simulated = [&](int threads, int prefetch) {
    SimClock::Options sim_options;
    sim_options.auto_advance = true;
    SimClock sim(sim_options);
    PipelineOptions sim_opt = opt;
    sim_opt.clock = &sim;
    return RunPipeline(scene, sim_opt, threads, prefetch);
  };
  RunResult sequential = run_simulated(1, 0);
  RunResult pipelined = run_simulated(4, 2);
  EXPECT_GT(sequential.report.degradation.frames_degraded, 0);
  ZeroMechanismCounters(&sequential.report);
  ZeroMechanismCounters(&pipelined.report);
  ExpectSameRun(std::move(sequential), std::move(pipelined));
}

TEST(PipelinedExecutor, CollapseFailsAtTheSameFrameWithTheSameMessage) {
  // Below-quorum collapse: the pipelined executor must drain in-flight
  // frames and surface the identical error — same frame index, same
  // quarantine snapshot — as the sequential one.
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = BaseOptions();
  opt.camera_faults.resize(4);
  for (auto& spec : opt.camera_faults) spec.outage_after_frame = 100;
  opt.acquisition.min_camera_quorum = 2;
  opt.acquisition.quarantine_after = 2;
  opt.acquisition.readmit_after = 0;  // cameras never come back
  opt.acquisition.max_consecutive_below_quorum = 5;

  auto fail = [&](int threads, int prefetch) {
    PipelineOptions run = opt;
    run.num_threads = threads;
    run.prefetch_depth = prefetch;
    MetadataRepository repo;
    auto report = DiEventPipeline(&scene, run).Run(&repo);
    EXPECT_FALSE(report.ok());
    return report.status();
  };
  Status sequential = fail(1, 0);
  EXPECT_EQ(sequential.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(sequential.message().find("collapsed"), std::string::npos);
  for (auto [threads, prefetch] :
       {std::pair{4, 0}, std::pair{1, 4}, std::pair{4, 4}}) {
    Status pipelined = fail(threads, prefetch);
    EXPECT_EQ(pipelined.code(), sequential.code());
    EXPECT_EQ(pipelined.message(), sequential.message())
        << "threads=" << threads << " prefetch=" << prefetch;
  }
}

TEST(PipelinedExecutor, CancellationNamesTheFirstUncommittedFrame) {
  // A cancel raised by the commit callback at frame 50 (stride 5) stops
  // every setting after the same 11 committed frames, and the status
  // names frame 55 — the first uncommitted frame, not the next frame the
  // window would have admitted.
  DiningScene scene = MakeMeetingScenario();
  auto cancel_at_50 = [&](PipelineOptions opt, const std::string& label) {
    opt.frame_stride = 5;
    CancellationToken cancel;
    opt.cancel = &cancel;
    int committed = 0;
    opt.on_frame_committed = [&](int frame, double) {
      ++committed;
      if (frame == 50) cancel.Cancel();
    };
    MetadataRepository repo;
    auto report = DiEventPipeline(&scene, opt).Run(&repo);
    ASSERT_FALSE(report.ok()) << label;
    EXPECT_EQ(report.status().code(), StatusCode::kCancelled) << label;
    EXPECT_EQ(report.status().message(), "run cancelled before frame 55")
        << label;
    EXPECT_EQ(committed, 11) << label;
    EXPECT_EQ(repo.lookat_records().size(), 11u) << label;
  };
  for (auto [threads, prefetch] : {std::pair{1, 0}, std::pair{4, 0},
                                   std::pair{1, 4}, std::pair{4, 4}}) {
    PipelineOptions opt = BaseOptions();
    opt.num_threads = threads;
    opt.prefetch_depth = prefetch;
    cancel_at_50(opt, "full vision threads=" + std::to_string(threads) +
                          " prefetch=" + std::to_string(prefetch));
  }
  PipelineOptions truth;
  truth.mode = PipelineMode::kGroundTruth;
  truth.parse_video = false;
  cancel_at_50(truth, "ground truth");
}

TEST(PipelinedExecutor, RejectsNegativePrefetchDepth) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = BaseOptions();
  opt.prefetch_depth = -1;
  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelinedExecutor, GroundTruthModeIgnoresTheKnobs) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt;
  opt.mode = PipelineMode::kGroundTruth;
  opt.parse_video = false;
  opt.frame_stride = 5;
  opt.num_threads = 4;
  opt.prefetch_depth = 4;
  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().frames_processed, 122);
}

}  // namespace
}  // namespace dievent
