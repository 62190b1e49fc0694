#include "video/shot_detection.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/scenario.h"
#include "video/parser.h"
#include "video/synthetic_source.h"

namespace dievent {
namespace {

/// A synthetic video of solid-color "shots" with optional per-pixel noise.
MemoryVideoSource MakeCutVideo(const std::vector<std::pair<int, Rgb>>& shots,
                               double noise, uint64_t seed) {
  std::vector<ImageRgb> frames;
  Rng rng(seed);
  for (const auto& [count, color] : shots) {
    for (int i = 0; i < count; ++i) {
      ImageRgb f(64, 48, 3);
      for (int y = 0; y < 48; ++y) {
        for (int x = 0; x < 64; ++x) {
          auto jitter = [&](uint8_t v) {
            double nv = v + rng.Gaussian(0, noise);
            return static_cast<uint8_t>(std::clamp(nv, 0.0, 255.0));
          };
          PutRgb(&f, x, y, Rgb{jitter(color.r), jitter(color.g),
                               jitter(color.b)});
        }
      }
      frames.push_back(std::move(f));
    }
  }
  return MemoryVideoSource(std::move(frames), 25.0);
}

TEST(ShotDetection, FindsHardCuts) {
  auto src = MakeCutVideo(
      {{30, Rgb{50, 60, 70}}, {25, Rgb{200, 180, 40}}, {30, Rgb{20, 120, 200}}},
      2.0, 7);
  ShotBoundaryDetector det;
  auto cuts = det.Detect(&src);
  ASSERT_TRUE(cuts.ok());
  ASSERT_EQ(cuts.value().size(), 2u);
  EXPECT_EQ(cuts.value()[0].frame, 30);
  EXPECT_EQ(cuts.value()[1].frame, 55);
}

TEST(ShotDetection, SourceDetectRejectsNonPowerOfTwoBins) {
  auto src = MakeCutVideo({{4, Rgb{90, 90, 90}}}, 0.0, 9);
  ShotDetectorOptions opt;
  opt.bins_per_channel = 5;
  EXPECT_EQ(ShotBoundaryDetector(opt).Detect(&src).status().code(),
            StatusCode::kInvalidArgument);
  VideoParserOptions parsing;
  parsing.shot.bins_per_channel = 7;
  EXPECT_EQ(VideoParser(parsing).Parse(&src).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShotDetection, QuietVideoHasNoCuts) {
  auto src = MakeCutVideo({{60, Rgb{90, 90, 90}}}, 3.0, 8);
  ShotBoundaryDetector det;
  auto cuts = det.Detect(&src);
  ASSERT_TRUE(cuts.ok());
  EXPECT_TRUE(cuts.value().empty());
}

TEST(ShotDetection, MinShotLengthDebounces) {
  // A two-frame flash would produce two boundaries closer than
  // min_shot_length; only the first survives.
  auto src = MakeCutVideo(
      {{20, Rgb{50, 50, 50}}, {2, Rgb{255, 255, 255}}, {20, Rgb{50, 50, 50}}},
      0.0, 9);
  ShotDetectorOptions opt;
  opt.min_shot_length = 5;
  ShotBoundaryDetector det(opt);
  auto cuts = det.Detect(&src);
  ASSERT_TRUE(cuts.ok());
  EXPECT_EQ(cuts.value().size(), 1u);
}

TEST(ShotDetection, FixedThresholdMode) {
  auto src = MakeCutVideo({{10, Rgb{0, 0, 0}}, {10, Rgb{255, 255, 255}}},
                          0.0, 10);
  ShotDetectorOptions opt;
  opt.threshold_mode = ThresholdMode::kFixed;
  opt.fixed_threshold = 0.5;
  ShotBoundaryDetector det(opt);
  auto cuts = det.Detect(&src);
  ASSERT_TRUE(cuts.ok());
  ASSERT_EQ(cuts.value().size(), 1u);
  EXPECT_EQ(cuts.value()[0].frame, 10);
}

TEST(ShotDetection, L1MetricAlsoDetects) {
  auto src = MakeCutVideo({{15, Rgb{30, 40, 50}}, {15, Rgb{220, 10, 90}}},
                          1.0, 11);
  ShotDetectorOptions opt;
  opt.metric = HistogramMetric::kL1;
  ShotBoundaryDetector det(opt);
  auto cuts = det.Detect(&src);
  ASSERT_TRUE(cuts.ok());
  ASSERT_EQ(cuts.value().size(), 1u);
  EXPECT_EQ(cuts.value()[0].frame, 15);
}

TEST(ShotDetection, MeetingVideoIsOneShot) {
  // The paper's prototype video is one continuous recording: the
  // detector must not hallucinate cuts from participant motion.
  DiningScene scene = MakeMeetingScenario();
  SyntheticVideoSource src(&scene, 0);
  std::vector<Histogram> sigs;
  ShotBoundaryDetector det;
  for (int f = 0; f < 200; f += 2) {
    sigs.push_back(det.Signature(src.GetFrame(f).value().image));
  }
  EXPECT_TRUE(det.DetectFromHistograms(sigs).empty());
}

TEST(BoundariesToShots, PartitionsFrameRange) {
  std::vector<ShotBoundary> cuts = {{10, 1.0}, {25, 1.0}};
  auto shots = BoundariesToShots(cuts, 40);
  ASSERT_EQ(shots.size(), 3u);
  EXPECT_EQ(shots[0].begin_frame, 0);
  EXPECT_EQ(shots[0].end_frame, 10);
  EXPECT_EQ(shots[1].begin_frame, 10);
  EXPECT_EQ(shots[1].end_frame, 25);
  EXPECT_EQ(shots[2].begin_frame, 25);
  EXPECT_EQ(shots[2].end_frame, 40);
  // Coverage is exact and disjoint.
  int covered = 0;
  for (const auto& s : shots) covered += s.Length();
  EXPECT_EQ(covered, 40);
}

TEST(BoundariesToShots, NoCutsMeansOneShot) {
  auto shots = BoundariesToShots({}, 17);
  ASSERT_EQ(shots.size(), 1u);
  EXPECT_EQ(shots[0].Length(), 17);
}

TEST(BoundariesToShots, IgnoresOutOfRangeCuts) {
  std::vector<ShotBoundary> cuts = {{0, 1.0}, {50, 1.0}, {10, 1.0}};
  auto shots = BoundariesToShots(cuts, 20);
  ASSERT_EQ(shots.size(), 2u);
  EXPECT_EQ(shots[1].begin_frame, 10);
}

}  // namespace
}  // namespace dievent
