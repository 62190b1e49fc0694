#include "vision/landmarks.h"

#include <gtest/gtest.h>

#include "render/face_renderer.h"
#include "vision/face_detector.h"

namespace dievent {
namespace {

std::pair<ImageRgb, FaceDetection> RenderAndDetect(double gx, double gy,
                                                   int size = 130,
                                                   Emotion e =
                                                       Emotion::kNeutral) {
  ImageRgb crop = RenderFaceCrop(size, e, 1.0, gx, gy);
  FaceDetector det;
  auto found = det.Detect(crop);
  EXPECT_EQ(found.size(), 1u);
  return {crop, found.empty() ? FaceDetection{} : found[0]};
}

TEST(Landmarks, LocatesEyesAndMouthOnFrontalFace) {
  auto [crop, det] = RenderAndDetect(0.0, 0.0);
  LandmarkLocalizer loc;
  FaceLandmarks lm = loc.Localize(crop, det);
  ASSERT_TRUE(lm.eyes_valid);
  ASSERT_TRUE(lm.mouth_valid);
  const double r = det.radius_px;
  // Eyes left/right of centre, above it; mouth below.
  EXPECT_LT(lm.left_eye.x, det.center_px.x);
  EXPECT_GT(lm.right_eye.x, det.center_px.x);
  EXPECT_LT(lm.left_eye.y, det.center_px.y);
  EXPECT_GT(lm.mouth.y, det.center_px.y + 0.2 * r);
  EXPECT_NEAR(lm.mouth.x, det.center_px.x, 0.15 * r);
}

TEST(Landmarks, EyeAnchorsNearModelPositions) {
  auto [crop, det] = RenderAndDetect(0.0, 0.0);
  LandmarkLocalizer loc;
  FaceLandmarks lm = loc.Localize(crop, det);
  ASSERT_TRUE(lm.eyes_valid);
  const double r = det.radius_px;
  Vec2 expected_left{det.center_px.x - face_model::kEyeOffsetX * r,
                     det.center_px.y + face_model::kEyeOffsetY * r};
  EXPECT_NEAR((lm.left_eye - expected_left).Norm(), 0.0, 0.08 * r);
}

TEST(Landmarks, IrisFollowsGazeDirection) {
  LandmarkLocalizer loc;
  auto [crop_l, det_l] = RenderAndDetect(-0.7, 0.0);
  auto [crop_r, det_r] = RenderAndDetect(0.7, 0.0);
  FaceLandmarks left = loc.Localize(crop_l, det_l);
  FaceLandmarks right = loc.Localize(crop_r, det_r);
  ASSERT_TRUE(left.eyes_valid && right.eyes_valid);
  EXPECT_LT(left.left_iris.x - left.left_eye.x,
            right.left_iris.x - right.left_eye.x);
  EXPECT_LT(left.right_iris.x - left.right_eye.x,
            right.right_iris.x - right.right_eye.x);
}

TEST(Landmarks, NonFrontalDetectionInvalid) {
  ImageRgb img(100, 100, 3);
  FaceDetection det;
  det.center_px = {50, 50};
  det.radius_px = 30;
  det.front_facing = false;
  LandmarkLocalizer loc;
  FaceLandmarks lm = loc.Localize(img, det);
  EXPECT_FALSE(lm.eyes_valid);
  EXPECT_FALSE(lm.mouth_valid);
}

TEST(Landmarks, TinyFaceInvalid) {
  ImageRgb img(20, 20, 3);
  FaceDetection det;
  det.center_px = {10, 10};
  det.radius_px = 3.0;
  det.front_facing = true;
  LandmarkLocalizer loc;
  EXPECT_FALSE(loc.Localize(img, det).eyes_valid);
}

TEST(Landmarks, MouthFoundAcrossEmotions) {
  LandmarkLocalizer loc;
  for (Emotion e : kAllEmotions) {
    auto [crop, det] = RenderAndDetect(0.0, 0.0, 130, e);
    FaceLandmarks lm = loc.Localize(crop, det);
    EXPECT_TRUE(lm.mouth_valid) << EmotionName(e);
  }
}

TEST(Landmarks, DarkCapDoesNotPolluteIris) {
  // Regression: a near-black identity cap must not attract the iris
  // centroid (the paper's "black" participant).
  ImageRgb crop = RenderFaceCrop(130, Emotion::kNeutral, 1.0, 0.0, 0.0,
                                 Rgb{30, 30, 30});
  FaceDetector det;
  auto found = det.Detect(crop);
  ASSERT_EQ(found.size(), 1u);
  LandmarkLocalizer loc;
  FaceLandmarks lm = loc.Localize(crop, found[0]);
  ASSERT_TRUE(lm.eyes_valid);
  // Gaze is centred: iris must sit within a fraction of the eye radius
  // of the white centroid.
  double er = face_model::kEyeRadius * found[0].radius_px;
  EXPECT_LT((lm.left_iris - lm.left_eye).Norm(), 0.3 * er);
  EXPECT_LT((lm.right_iris - lm.right_eye).Norm(), 0.3 * er);
}

TEST(LandmarkLocalizer, NonRgbFrameYieldsNoLandmarks) {
  // A frontal detection near the bottom-right corner of a one-channel
  // frame whose every byte equals the mouth color's red level: the mouth
  // window reaches the last pixel, so reading three channels there would
  // run past the buffer.
  FaceDetection det;
  det.center_px = Vec2{60, 44};
  det.radius_px = 10;
  det.bbox = BBox{50, 34, 14, 14};
  ImageRgb gray(64, 48);
  gray.Fill(face_model::kMouth.r);
  LandmarkLocalizer loc;
  FaceLandmarks lm = loc.Localize(gray, det);
  EXPECT_FALSE(lm.eyes_valid);
  EXPECT_FALSE(lm.mouth_valid);
  // Four channels, the first three holding a real frontal face.
  auto [crop, found] = RenderAndDetect(0.0, 0.0);
  ASSERT_TRUE(loc.Localize(crop, found).mouth_valid);
  ImageRgb rgba(crop.width(), crop.height(), 4);
  for (int y = 0; y < crop.height(); ++y) {
    for (int x = 0; x < crop.width(); ++x) {
      for (int c = 0; c < 3; ++c) rgba.at(x, y, c) = crop.at(x, y, c);
    }
  }
  lm = loc.Localize(rgba, found);
  EXPECT_FALSE(lm.eyes_valid);
  EXPECT_FALSE(lm.mouth_valid);
}

}  // namespace
}  // namespace dievent
