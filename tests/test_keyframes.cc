#include "video/keyframes.h"

#include <gtest/gtest.h>

#include "video/shot_detection.h"

namespace dievent {
namespace {

Histogram Solid(double a, double b) {
  Histogram h;
  h.bins = {a, b, 1.0 - a - b};
  return h;
}

TEST(KeyFrames, StaticShotYieldsOneKeyFrame) {
  std::vector<Histogram> sigs(20, Solid(0.5, 0.3));
  Shot shot{0, 20, {}};
  auto keys = ExtractKeyFrames(sigs, shot, KeyFrameOptions{});
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], 0);
}

TEST(KeyFrames, DriftTriggersNewKeyFrames) {
  std::vector<Histogram> sigs;
  for (int i = 0; i < 30; ++i) {
    sigs.push_back(Solid(0.9 - 0.03 * i, 0.05));  // steady drift
  }
  Shot shot{0, 30, {}};
  KeyFrameOptions opt;
  opt.drift_threshold = 0.1;
  auto keys = ExtractKeyFrames(sigs, shot, opt);
  EXPECT_GT(keys.size(), 2u);
  EXPECT_EQ(keys[0], 0);
  // Keys are strictly increasing and within the shot.
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_GT(keys[i], keys[i - 1]);
    EXPECT_LT(keys[i], 30);
  }
}

TEST(KeyFrames, CapLimitsCount) {
  std::vector<Histogram> sigs;
  for (int i = 0; i < 50; ++i) sigs.push_back(Solid(i % 2 ? 0.9 : 0.1, 0.05));
  Shot shot{0, 50, {}};
  KeyFrameOptions opt;
  opt.drift_threshold = 0.05;
  opt.max_key_frames_per_shot = 3;
  auto keys = ExtractKeyFrames(sigs, shot, opt);
  EXPECT_EQ(keys.size(), 3u);
}

TEST(KeyFrames, RespectsShotBounds) {
  std::vector<Histogram> sigs;
  for (int i = 0; i < 30; ++i) sigs.push_back(Solid(i < 15 ? 0.9 : 0.1, 0.05));
  Shot shot{15, 30, {}};
  auto keys = ExtractKeyFrames(sigs, shot, KeyFrameOptions{});
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(keys[0], 15);
  for (int k : keys) {
    EXPECT_GE(k, 15);
    EXPECT_LT(k, 30);
  }
}

TEST(KeyFrames, DegenerateShotsYieldNothing) {
  std::vector<Histogram> sigs(5, Solid(0.5, 0.3));
  EXPECT_TRUE(ExtractKeyFrames(sigs, Shot{3, 3, {}}, {}).empty());
  EXPECT_TRUE(ExtractKeyFrames(sigs, Shot{0, 10, {}}, {}).empty());
}

TEST(KeyFrames, SourceOverloadRejectsNonPowerOfTwoBins) {
  std::vector<ImageRgb> frames(4, ImageRgb(8, 8, 3));
  MemoryVideoSource src(std::move(frames), 10.0);
  KeyFrameOptions opt;
  opt.bins_per_channel = 6;
  auto keys = ExtractKeyFrames(&src, Shot{0, 4, {}}, opt);
  EXPECT_EQ(keys.status().code(), StatusCode::kInvalidArgument);
}

TEST(KeyFrames, SourceOverloadChecksBounds) {
  std::vector<ImageRgb> frames(4, ImageRgb(8, 8, 3));
  MemoryVideoSource src(std::move(frames), 10.0);
  Shot bad{0, 10, {}};
  EXPECT_EQ(ExtractKeyFrames(&src, bad, {}).status().code(),
            StatusCode::kOutOfRange);
  Shot good{0, 4, {}};
  auto keys = ExtractKeyFrames(&src, good, {});
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys.value().size(), 1u);
}

}  // namespace
}  // namespace dievent
