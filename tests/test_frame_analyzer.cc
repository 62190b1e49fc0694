// Tests for the adoption path: frames on disk -> ImageSequenceSource ->
// FrameAnalyzer -> look-at matrices, with no simulator in the loop at
// analysis time.

#include "core/frame_analyzer.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/strings.h"
#include "image/pnm_io.h"
#include "render/scene_renderer.h"
#include "sim/scenario.h"
#include "video/image_sequence_source.h"

namespace dievent {
namespace {

std::vector<ParticipantProfile> Profiles(const DiningScene& scene) {
  std::vector<ParticipantProfile> out;
  for (const auto& p : scene.participants()) out.push_back(p.profile);
  return out;
}

TEST(FrameAnalyzer, CreateValidates) {
  DiningScene scene = MakeMeetingScenario();
  auto profiles = Profiles(scene);
  EXPECT_FALSE(
      FrameAnalyzer::Create(nullptr, profiles, {}).ok());
  EXPECT_FALSE(FrameAnalyzer::Create(&scene.rig(), {}, {}).ok());
  EXPECT_FALSE(
      FrameAnalyzer::Create(&scene.rig(), profiles, {}, {0, 17}).ok());
  EXPECT_TRUE(FrameAnalyzer::Create(&scene.rig(), profiles, {}).ok());
}

TEST(FrameAnalyzer, AnalyzeChecksFrameCount) {
  DiningScene scene = MakeMeetingScenario();
  auto analyzer =
      FrameAnalyzer::Create(&scene.rig(), Profiles(scene), {});
  ASSERT_TRUE(analyzer.ok());
  std::vector<ImageRgb> wrong(2, ImageRgb(8, 8, 3));
  EXPECT_EQ(analyzer.value().Analyze(0, wrong).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameAnalyzer, AnalyzeRejectsNonRgbFrames) {
  DiningScene scene = MakeMeetingScenario();
  auto analyzer =
      FrameAnalyzer::Create(&scene.rig(), Profiles(scene), {});
  ASSERT_TRUE(analyzer.ok());
  std::vector<ImageRgb> frames(4, ImageRgb(64, 48, 3));
  frames[2] = ImageRgb(64, 48);  // one channel
  Status status = analyzer.value().Analyze(0, frames).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(scene.rig().camera(2).name()),
            std::string::npos)
      << status;
  // An absent camera's frame is never read, whatever its shape.
  std::vector<CameraFrameQuality> quality(4, CameraFrameQuality::kFresh);
  quality[2] = CameraFrameQuality::kAbsent;
  EXPECT_TRUE(analyzer.value().Analyze(1, frames, quality).ok());
}

TEST(FrameAnalyzer, MatchesGroundTruthOnRenderedFrames) {
  DiningScene scene = MakeMeetingScenario();
  FrameAnalyzerOptions opt;
  opt.eye_contact.angular_tolerance_deg = 12.0;
  auto analyzer =
      FrameAnalyzer::Create(&scene.rig(), Profiles(scene), opt);
  ASSERT_TRUE(analyzer.ok());
  for (double t : {10.0, 15.0}) {
    std::vector<ImageRgb> frames;
    for (int c = 0; c < 4; ++c) {
      frames.push_back(RenderViewAt(scene, t, c, RenderOptions{}));
    }
    auto analysis = analyzer.value().Analyze(
        static_cast<int>(t * scene.fps()), frames);
    ASSERT_TRUE(analysis.ok()) << analysis.status();
    auto gt = scene.GroundTruthLookAt(t);
    for (int x = 0; x < 4; ++x) {
      for (int y = 0; y < 4; ++y) {
        if (x != y) {
          EXPECT_EQ(analysis.value().lookat.At(x, y), gt[x][y])
              << t << " " << x << "->" << y;
        }
      }
    }
    EXPECT_EQ(analysis.value().per_camera.size(), 4u);
  }
}

TEST(FrameAnalyzer, CameraSubsetWorks) {
  DiningScene scene = MakeMeetingScenario();
  FrameAnalyzerOptions opt;
  opt.eye_contact.angular_tolerance_deg = 12.0;
  auto analyzer = FrameAnalyzer::Create(&scene.rig(), Profiles(scene),
                                        opt, {0, 2});
  ASSERT_TRUE(analyzer.ok());
  EXPECT_EQ(analyzer.value().cameras(), (std::vector<int>{0, 2}));
  std::vector<ImageRgb> frames = {
      RenderViewAt(scene, 10.0, 0, RenderOptions{}),
      RenderViewAt(scene, 10.0, 2, RenderOptions{})};
  auto analysis = analyzer.value().Analyze(152, frames);
  ASSERT_TRUE(analysis.ok());
  // Two opposite cameras still recover the Fig. 7 configuration.
  EXPECT_TRUE(analysis.value().lookat.At(0, 2));
  EXPECT_TRUE(analysis.value().lookat.At(2, 0));
}

TEST(ImageSequenceSource, OpenValidates) {
  // The pattern goes to printf with one int argument, so anything but
  // exactly one %d / %0Nd conversion (plus literal %%) is rejected before
  // it is formatted.
  for (const char* pattern :
       {"no_placeholder.ppm", "cam_%s_%d.ppm", "%d_%d.ppm", "%0s%d",
        "f_%%d.ppm", "f_%-4d.ppm", "f_%ld.ppm", "f_%123d.ppm", "f_%d%"}) {
    EXPECT_EQ(ImageSequenceSource::Open(pattern, 10).status().code(),
              StatusCode::kInvalidArgument)
        << pattern;
  }
  // Well-formed patterns get as far as looking for the first frame.
  for (const char* pattern :
       {"/nope/frame_%04d.ppm", "/nope/100%%_%d.ppm", "/nope/%d"}) {
    EXPECT_EQ(ImageSequenceSource::Open(pattern, 10).status().code(),
              StatusCode::kNotFound)
        << pattern;
  }
  EXPECT_FALSE(ImageSequenceSource::Open("f_%d.ppm", 0.0).ok());
}

TEST(ImageSequenceSource, EndToEndFromDisk) {
  // Render 5 frames of camera 1 to disk, reopen them as a sequence, and
  // analyze — the full real-footage workflow.
  DiningScene scene = MakeMeetingScenario();
  std::string dir = testing::TempDir() + "/seq";
  std::filesystem::create_directories(dir);
  const double fps = scene.fps();
  for (int f = 0; f < 5; ++f) {
    ImageRgb frame =
        RenderViewAt(scene, (150 + f) / fps, 1, RenderOptions{});
    ASSERT_TRUE(
        WritePpm(frame, dir + StrFormat("/cam1_%04d.ppm", f)).ok());
  }
  auto source = ImageSequenceSource::Open(dir + "/cam1_%04d.ppm", fps);
  ASSERT_TRUE(source.ok()) << source.status();
  EXPECT_EQ(source.value().NumFrames(), 5);
  auto frame = source.value().GetFrame(3);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().image.width(), 640);
  EXPECT_NEAR(frame.value().timestamp_s, 3 / fps, 1e-9);
  EXPECT_FALSE(source.value().GetFrame(5).ok());

  // Single-camera analysis of the on-disk frames.
  FrameAnalyzerOptions opt;
  opt.eye_contact.angular_tolerance_deg = 12.0;
  auto analyzer = FrameAnalyzer::Create(&scene.rig(), Profiles(scene),
                                        opt, {1});
  ASSERT_TRUE(analyzer.ok());
  auto analysis =
      analyzer.value().Analyze(0, {source.value().GetFrame(0).value().image});
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis.value().per_camera[0].size(), 4u);  // all heads seen
}

TEST(FrameAnalyzer, ResetTrackingRestartsTrackIds) {
  DiningScene scene = MakeMeetingScenario();
  auto analyzer =
      FrameAnalyzer::Create(&scene.rig(), Profiles(scene), {}, {0});
  ASSERT_TRUE(analyzer.ok());
  std::vector<ImageRgb> frames = {
      RenderViewAt(scene, 1.0, 0, RenderOptions{})};
  ASSERT_TRUE(analyzer.value().Analyze(0, frames).ok());
  analyzer.value().ResetTracking();
  // Re-analyzing frame 0 after reset must not blow up or double-track.
  auto again = analyzer.value().Analyze(0, frames);
  ASSERT_TRUE(again.ok());
}

}  // namespace
}  // namespace dievent
