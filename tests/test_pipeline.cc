// Pipeline facade tests: ground-truth mode must reproduce the paper's
// prototype outputs; full-vision mode must track ground truth closely on
// clean frames.

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>

#include "sim/scenario.h"
#include "video/video_source.h"

namespace dievent {
namespace {

constexpr int kP1 = 0, kP3 = 2;

PipelineOptions FastVisionOptions() {
  PipelineOptions opt;
  opt.mode = PipelineMode::kFullVision;
  opt.analyze_emotions = false;  // training covered separately
  opt.parse_video = false;
  return opt;
}

TEST(PipelineGroundTruth, ReproducesFig9Summary) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt;
  opt.mode = PipelineMode::kGroundTruth;
  opt.parse_video = false;
  DiEventPipeline pipeline(&scene, opt);
  MetadataRepository repo;
  auto report = pipeline.Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().frames_processed, 610);
  EXPECT_EQ(report.value().summary.At(kP1, kP3), 357);
  EXPECT_EQ(report.value().dominant_participant, kP1);
  EXPECT_EQ(repo.lookat_records().size(), 610u);
  // Emotion layers were stored too (ground-truth mode).
  EXPECT_GT(repo.emotion_records().size(), 0u);
  EXPECT_EQ(repo.overall_records().size(), 610u);
}

TEST(PipelineGroundTruth, EyeContactEpisodesAreDetected) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt;
  opt.mode = PipelineMode::kGroundTruth;
  opt.parse_video = false;
  DiEventPipeline pipeline(&scene, opt);
  MetadataRepository repo;
  auto report = pipeline.Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();
  // P1<->P3 mutual gaze holds during frames [60, 200) and [330, 437):
  // two episodes involving the pair (0, 2).
  int p1p3 = 0;
  for (const auto& ep : report.value().eye_contact_episodes) {
    if (ep.a == kP1 && ep.b == kP3) {
      ++p1p3;
      EXPECT_GE(ep.Length(), 100);
    }
  }
  EXPECT_EQ(p1p3, 2);
}

TEST(PipelineFullVision, TracksGroundTruthOnCleanFrames) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = FastVisionOptions();
  opt.frame_stride = 10;  // 61 frames: enough signal, fast enough
  // Iris quantization at 640x480 bounds per-view gaze accuracy around
  // 5-12 deg; the nearest competing head in this layout is ~37 deg away,
  // so this tolerance recovers edges without creating false ones.
  opt.eye_contact.angular_tolerance_deg = 12.0;
  DiEventPipeline pipeline(&scene, opt);
  MetadataRepository repo;
  auto report = pipeline.Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();
  const PipelineAccuracy& acc = report.value().accuracy;
  EXPECT_GT(acc.detection_coverage, 0.95);
  EXPECT_GT(acc.gaze_coverage, 0.8);
  EXPECT_LT(acc.mean_position_error_m, 0.15);
  EXPECT_LT(acc.mean_gaze_error_deg, 14.0);
  EXPECT_GT(acc.lookat_cell_accuracy, 0.85);
  EXPECT_GT(acc.edge_recall, 0.7);
  EXPECT_GT(acc.edge_precision, 0.7);
}

TEST(PipelineFullVision, RejectsBadOptions) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = FastVisionOptions();
  opt.frame_stride = 0;
  DiEventPipeline pipeline(&scene, opt);
  MetadataRepository repo;
  auto report = pipeline.Run(&repo);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);

  DiEventPipeline pipeline2(&scene, FastVisionOptions());
  EXPECT_FALSE(pipeline2.Run(nullptr).ok());
}

TEST(PipelineGroundTruth, StrideSkipsFrames) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt;
  opt.mode = PipelineMode::kGroundTruth;
  opt.parse_video = false;
  opt.frame_stride = 5;
  DiEventPipeline pipeline(&scene, opt);
  MetadataRepository repo;
  auto report = pipeline.Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().frames_processed, 122);
  EXPECT_EQ(repo.lookat_records().size(), 122u);
}

TEST(PipelineFullVision, ParallelMatchesSequential) {
  // Per-camera work is independent, so the multi-threaded pipeline must
  // produce bit-identical analysis results.
  DiningScene scene = MakeMeetingScenario();
  auto run = [&scene](int threads) {
    PipelineOptions opt = FastVisionOptions();
    opt.frame_stride = 20;
    opt.eye_contact.angular_tolerance_deg = 12.0;
    opt.num_threads = threads;
    MetadataRepository repo;
    auto report = DiEventPipeline(&scene, opt).Run(&repo);
    EXPECT_TRUE(report.ok()) << report.status();
    return repo;
  };
  MetadataRepository sequential = run(1);
  MetadataRepository parallel = run(4);
  ASSERT_EQ(sequential.lookat_records().size(),
            parallel.lookat_records().size());
  for (size_t i = 0; i < sequential.lookat_records().size(); ++i) {
    EXPECT_TRUE(sequential.lookat_records()[i].cells ==
                parallel.lookat_records()[i].cells)
        << "frame record " << i;
  }
}

TEST(PipelineFullVision, SeatPriorRescuesDisabledRecognizer) {
  // With an impossible reject threshold the appearance recognizer never
  // identifies anyone; the seat prior must carry the analysis instead.
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = FastVisionOptions();
  opt.frame_stride = 20;
  opt.eye_contact.angular_tolerance_deg = 12.0;
  opt.recognizer_reject_distance = 0.0;  // appearance identity disabled

  MetadataRepository repo;
  auto without = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(without.ok());
  EXPECT_LT(without.value().accuracy.detection_coverage, 0.05);

  opt.seat_prior_from_scene = true;
  auto with = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(with.ok());
  EXPECT_GT(with.value().accuracy.detection_coverage, 0.95);
  EXPECT_GT(with.value().accuracy.edge_recall, 0.9);
}

TEST(PipelineFullVision, RejectsUnknownCameraSubset) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = FastVisionOptions();
  opt.camera_subset = {0, 9};
  MetadataRepository repo;
  EXPECT_EQ(DiEventPipeline(&scene, opt).Run(&repo).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PipelineFullVision, RejectsSignatureBinCountsThatAreNotPowersOfTwo) {
  // 256 / 3 and 256 / 6 leave a remainder, so hard binning would index
  // past the last bin; Run refuses them before touching the repository.
  DiningScene scene = MakeMeetingScenario();
  for (int bins : {3, 6}) {
    PipelineOptions opt = FastVisionOptions();
    opt.parse_video = true;
    opt.parsing.shot.bins_per_channel = bins;
    MetadataRepository repo;
    auto report = DiEventPipeline(&scene, opt).Run(&repo);
    ASSERT_FALSE(report.ok()) << bins;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(report.status().message().find("parsing.shot.bins_per_channel"),
              std::string::npos)
        << report.status().ToString();
    EXPECT_EQ(repo.TotalRecords(), 0u);
  }
}

TEST(PipelineReport, SummaryStringMentionsDominance) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt;
  opt.mode = PipelineMode::kGroundTruth;
  opt.parse_video = false;
  DiEventPipeline pipeline(&scene, opt);
  MetadataRepository repo;
  auto report = pipeline.Run(&repo);
  ASSERT_TRUE(report.ok());
  std::string s = report.value().Summary();
  EXPECT_NE(s.find("dominant participant: P1"), std::string::npos);
  EXPECT_NE(s.find("look-at summary"), std::string::npos);
}

/// Counts the frames read through it and records, at each read, how far
/// the reads have run ahead of the consumer's commits.
class CountingSource : public VideoSource {
 public:
  CountingSource(std::unique_ptr<VideoSource> inner,
                 const std::atomic<int>* committed)
      : inner_(std::move(inner)), committed_(committed) {}

  int NumFrames() const override { return inner_->NumFrames(); }
  double Fps() const override { return inner_->Fps(); }
  Result<VideoFrame> GetFrame(int index) override {
    const int ahead = reads_.fetch_add(1) + 1 - committed_->load();
    int seen = max_ahead_.load();
    while (ahead > seen && !max_ahead_.compare_exchange_weak(seen, ahead)) {
    }
    return inner_->GetFrame(index);
  }

  int reads() const { return reads_.load(); }
  int max_ahead() const { return max_ahead_.load(); }

 private:
  std::unique_ptr<VideoSource> inner_;
  const std::atomic<int>* committed_;
  std::atomic<int> reads_{0};
  std::atomic<int> max_ahead_{0};
};

TEST(PipelineReadAhead, PlanSizesTheWindowAndThePump) {
  PipelineOptions opt;
  opt.num_threads = 4;
  opt.prefetch_depth = 4;
  ReadAhead plan = PlanReadAhead(opt);
  EXPECT_EQ(plan.workers, 4);
  EXPECT_EQ(plan.window, 4);
  EXPECT_EQ(plan.pump_depth, 1);  // the window holds the rest
  opt.num_threads = 1;
  plan = PlanReadAhead(opt);
  EXPECT_EQ(plan.window, 1);
  EXPECT_EQ(plan.pump_depth, 3);
  opt.prefetch_depth = 0;
  plan = PlanReadAhead(opt);
  EXPECT_EQ(plan.pump_depth, 0);
  opt.mode = PipelineMode::kGroundTruth;
  opt.num_threads = 8;
  opt.prefetch_depth = 8;
  plan = PlanReadAhead(opt);
  EXPECT_EQ(plan.workers, 1);
  EXPECT_EQ(plan.window, 1);
  EXPECT_EQ(plan.pump_depth, 0);
}

TEST(PipelineReadAhead, ReadsNeverRunPastThePlannedBound) {
  // The executor's consumption pattern over a prefetching source: keep
  // the window full, then retire the head frame. The consumer is slower
  // than the reads, so the pump fills its queue and waits at the bound:
  // the window, the pump's queue, one folded set waiting for room and
  // the set being read.
  constexpr int kFrames = 40;
  for (int threads : {1, 4}) {
    for (int depth : {1, 2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " prefetch_depth=" + std::to_string(depth));
      PipelineOptions opt;
      opt.num_threads = threads;
      opt.prefetch_depth = depth;
      const ReadAhead plan = PlanReadAhead(opt);
      ASSERT_GT(plan.pump_depth, 0);

      std::atomic<int> committed{0};
      std::vector<std::unique_ptr<VideoSource>> sources;
      for (int c = 0; c < 2; ++c) {
        std::vector<ImageRgb> frames(kFrames, ImageRgb(8, 8, 3));
        sources.push_back(
            std::make_unique<MemoryVideoSource>(std::move(frames), 25.0));
      }
      auto counting =
          std::make_unique<CountingSource>(std::move(sources[0]), &committed);
      const CountingSource* counter = counting.get();
      sources[0] = std::move(counting);
      Result<MultiCameraSource> created =
          MultiCameraSource::Create(std::move(sources));
      ASSERT_TRUE(created.ok());
      MultiCameraSource multi = std::move(created).TakeValue();
      ASSERT_TRUE(multi.StartPrefetch(0, 1, plan.pump_depth).ok());

      std::deque<SynchronizedFrameSet> inflight;
      int next = 0;
      while (!inflight.empty() || next < kFrames) {
        while (static_cast<int>(inflight.size()) < plan.window &&
               next < kFrames) {
          Result<SynchronizedFrameSet> set = multi.GetFrames(next++);
          ASSERT_TRUE(set.ok()) << set.status().ToString();
          inflight.push_back(std::move(set).TakeValue());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        inflight.pop_front();
        committed.fetch_add(1);
      }
      multi.StopPrefetch();
      EXPECT_EQ(counter->reads(), kFrames);
      EXPECT_GE(counter->max_ahead(), plan.window);
      EXPECT_LE(counter->max_ahead(), plan.window + plan.pump_depth + 2);
    }
  }
}

}  // namespace
}  // namespace dievent
