#include "vision/face_detector.h"

#include <gtest/gtest.h>

#include "image/draw.h"
#include "render/face_renderer.h"
#include "render/scene_renderer.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

ImageRgb Background(int w, int h) {
  ImageRgb img(w, h, 3);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      PutRgb(&img, x, y, face_model::kDefaultBackground);
  return img;
}

TEST(IoU, BoxOverlapCases) {
  BBox a{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(IoU(a, a), 1.0);
  EXPECT_DOUBLE_EQ(IoU(a, BBox{20, 20, 5, 5}), 0.0);
  // Half overlap: inter 50, union 150.
  EXPECT_NEAR(IoU(a, BBox{5, 0, 10, 10}), 50.0 / 150.0, 1e-12);
}

TEST(FaceDetector, FindsFrontalFaceWithAccurateGeometry) {
  ImageRgb img = Background(200, 200);
  FaceRenderParams p;
  p.center_px = {100, 110};
  p.radius_px = 30;
  p.marker_color = Rgb{250, 210, 40};
  p.front_facing = true;
  RenderFace(&img, p);
  FaceDetector det;
  auto found = det.Detect(img);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found[0].front_facing);
  EXPECT_NEAR(found[0].center_px.x, 100, 1.5);
  EXPECT_NEAR(found[0].center_px.y, 110, 1.5);
  EXPECT_NEAR(found[0].radius_px, 30, 1.5);
}

TEST(FaceDetector, ClassifiesBackOfHead) {
  ImageRgb img = Background(200, 200);
  FaceRenderParams p;
  p.center_px = {80, 90};
  p.radius_px = 25;
  p.marker_color = Rgb{30, 30, 200};
  p.front_facing = false;
  RenderFace(&img, p);
  FaceDetector det;
  auto found = det.Detect(img);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_FALSE(found[0].front_facing);
  EXPECT_NEAR(found[0].radius_px, 25, 1.5);
}

TEST(FaceDetector, EmptyFrameYieldsNothing) {
  FaceDetector det;
  EXPECT_TRUE(det.Detect(Background(100, 100)).empty());
}

TEST(FaceDetector, NonRgbFrameYieldsNothing) {
  FaceDetector det;
  // One channel (ImageRgb's default) holding a head-sized disc of a gray
  // level within the hair gate of all three kHair channels.
  ImageRgb gray(64, 48);
  for (int y = 0; y < gray.height(); ++y) {
    for (int x = 0; x < gray.width(); ++x) {
      if ((x - 32) * (x - 32) + (y - 24) * (y - 24) <= 144) gray.at(x, y) = 52;
    }
  }
  EXPECT_TRUE(det.Detect(gray).empty());
  ImageRgb rgba(64, 48, 4);
  EXPECT_TRUE(det.Detect(rgba).empty());
}

TEST(FaceDetector, IgnoresTinyBlobs) {
  ImageRgb img = Background(100, 100);
  FillCircle(&img, 50, 50, 2.0, face_model::kSkin);  // below min radius
  FaceDetector det;
  EXPECT_TRUE(det.Detect(img).empty());
}

TEST(FaceDetector, RejectsElongatedStreaks) {
  ImageRgb img = Background(100, 100);
  FillRect(&img, 10, 48, 60, 4, face_model::kSkin);  // aspect 15
  FaceDetector det;
  EXPECT_TRUE(det.Detect(img).empty());
}

TEST(FaceDetector, MultipleFacesAllFound) {
  ImageRgb img = Background(400, 200);
  for (int i = 0; i < 4; ++i) {
    FaceRenderParams p;
    p.center_px = {60.0 + i * 90, 100};
    p.radius_px = 22;
    p.marker_color = Rgb{static_cast<uint8_t>(60 * i), 200, 120};
    p.front_facing = (i % 2 == 0);
    RenderFace(&img, p);
  }
  FaceDetector det;
  auto found = det.Detect(img);
  EXPECT_EQ(found.size(), 4u);
}

TEST(FaceDetector, SurvivesPixelNoise) {
  DiningScene scene = MakeMeetingScenario();
  RenderOptions opt;
  opt.noise_sigma = 8.0;
  Rng rng(5);
  ImageRgb frame = RenderViewAt(scene, 10.0, 1, opt, &rng);
  FaceDetector det;
  auto found = det.Detect(frame);
  // All four participants visible in camera 1 at t=10.
  EXPECT_EQ(found.size(), 4u);
}

TEST(FaceDetector, DetectionsMatchProjectedGroundTruth) {
  DiningScene scene = MakeMeetingScenario();
  ImageRgb frame = RenderViewAt(scene, 10.0, 0, RenderOptions{});
  FaceDetector det;
  auto found = det.Detect(frame);
  auto states = scene.StateAt(10.0);
  const CameraModel& cam = scene.rig().camera(0);
  int matched = 0;
  for (int i = 0; i < scene.NumParticipants(); ++i) {
    auto px = cam.ProjectWorldPoint(states[i].head_position);
    ASSERT_TRUE(px.has_value());
    for (const auto& d : found) {
      if ((d.center_px - *px).Norm() < 3.0) ++matched;
    }
  }
  EXPECT_EQ(matched, 4);
}

}  // namespace
}  // namespace dievent
