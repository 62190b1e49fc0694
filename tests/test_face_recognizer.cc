#include "ml/face_recognizer.h"

#include <gtest/gtest.h>

#include "render/face_renderer.h"
#include "render/scene_renderer.h"
#include "sim/scenario.h"
#include "vision/face_detector.h"

namespace dievent {
namespace {

std::vector<ParticipantProfile> MeetingProfiles() {
  DiningScene scene = MakeMeetingScenario();
  std::vector<ParticipantProfile> out;
  for (const auto& p : scene.participants()) out.push_back(p.profile);
  return out;
}

TEST(FaceRecognizer, EnrollValidates) {
  FaceRecognizer rec;
  EXPECT_EQ(rec.Enroll(0, "x", {}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(rec.Enroll(0, "x", {{1.0, 2.0}}).ok());
  // Multiple views per id are allowed.
  EXPECT_TRUE(rec.Enroll(0, "x", {{5.0, 6.0}}).ok());
  // Inconsistent embedding sizes rejected.
  EXPECT_FALSE(rec.Enroll(1, "y", {{1.0}, {1.0, 2.0}}).ok());
}

TEST(FaceRecognizer, RecognizesAllMeetingParticipantsInScene) {
  DiningScene scene = MakeMeetingScenario();
  FaceRecognizer rec;
  ASSERT_TRUE(rec.EnrollProfiles(MeetingProfiles()).ok());
  EXPECT_EQ(rec.NumEnrolled(), 8);  // 4 identities x {front, back}

  FaceDetector det;
  auto states = scene.StateAt(10.0);
  const CameraModel& cam = scene.rig().camera(0);
  ImageRgb frame = RenderView(scene, states, 0, RenderOptions{});
  int correct = 0, total = 0;
  for (const FaceDetection& d : det.Detect(frame)) {
    IdentityMatch m = rec.Recognize(frame, d);
    ASSERT_GE(m.id, 0);
    // Verify against the participant whose projection is closest.
    double best_dist = 1e9;
    int best_id = -1;
    for (int i = 0; i < scene.NumParticipants(); ++i) {
      auto px = cam.ProjectWorldPoint(states[i].head_position);
      if (px && (d.center_px - *px).Norm() < best_dist) {
        best_dist = (d.center_px - *px).Norm();
        best_id = i;
      }
    }
    ++total;
    if (m.id == best_id) ++correct;
  }
  EXPECT_EQ(total, 4);
  EXPECT_EQ(correct, 4);
}

TEST(FaceRecognizer, RecognitionSurvivesNoise) {
  DiningScene scene = MakeMeetingScenario();
  FaceRecognizer rec;
  ASSERT_TRUE(rec.EnrollProfiles(MeetingProfiles()).ok());
  RenderOptions opt;
  opt.noise_sigma = 6.0;
  Rng rng(13);
  ImageRgb frame = RenderViewAt(scene, 20.0, 1, opt, &rng);
  FaceDetector det;
  int recognized = 0;
  auto dets = det.Detect(frame);
  for (const FaceDetection& d : dets) {
    if (rec.Recognize(frame, d).id >= 0) ++recognized;
  }
  EXPECT_GE(recognized, 3);  // at most one dropout under noise
  EXPECT_EQ(dets.size(), 4u);
}

TEST(FaceRecognizer, RejectsUnknownMarker) {
  FaceRecognizer rec(0.2);
  ASSERT_TRUE(rec.EnrollProfiles(MeetingProfiles()).ok());
  // A participant with a color far from every enrolled marker.
  ImageRgb crop = RenderFaceCrop(64, Emotion::kNeutral, 1.0, 0, 0,
                                 Rgb{255, 0, 255});
  FaceDetector det;
  auto found = det.Detect(crop);
  ASSERT_EQ(found.size(), 1u);
  IdentityMatch m = rec.Recognize(crop, found[0]);
  EXPECT_EQ(m.id, -1);
}

TEST(FaceRecognizer, ConfidenceHigherForCleanMatches) {
  FaceRecognizer rec;
  ASSERT_TRUE(rec.EnrollProfiles(MeetingProfiles()).ok());
  ImageRgb crop = RenderFaceCrop(64, Emotion::kNeutral, 1.0, 0, 0,
                                 Rgb{230, 200, 40});  // P1 yellow
  FaceDetector det;
  auto found = det.Detect(crop);
  ASSERT_EQ(found.size(), 1u);
  IdentityMatch m = rec.Recognize(crop, found[0]);
  EXPECT_EQ(m.id, 0);
  EXPECT_GT(m.confidence, 0.5);
}

TEST(FaceRecognizer, NonRgbFrameMatchesNobody) {
  FaceRecognizer rec;
  ASSERT_TRUE(rec.EnrollProfiles(MeetingProfiles()).ok());
  ImageRgb crop = RenderFaceCrop(64, Emotion::kNeutral, 1.0, 0, 0,
                                 Rgb{230, 200, 40});  // P1 yellow
  FaceDetector det;
  auto found = det.Detect(crop);
  ASSERT_EQ(found.size(), 1u);
  ASSERT_EQ(rec.Recognize(crop, found[0]).id, 0);
  // The same head as one channel (red only), and as RGBA whose first three
  // channels hold P1's exact pixels: neither is an RGB frame, so neither
  // is read as one.
  ImageRgb gray(crop.width(), crop.height());
  ImageRgb rgba(crop.width(), crop.height(), 4);
  for (int y = 0; y < crop.height(); ++y) {
    for (int x = 0; x < crop.width(); ++x) {
      gray.at(x, y) = crop.at(x, y, 0);
      for (int c = 0; c < 3; ++c) rgba.at(x, y, c) = crop.at(x, y, c);
      rgba.at(x, y, 3) = 255;
    }
  }
  EXPECT_EQ(rec.Recognize(gray, found[0]).id, -1);
  EXPECT_EQ(rec.Recognize(rgba, found[0]).id, -1);
  EXPECT_TRUE(FaceEmbedder().Embed(gray, found[0]).empty());
  // A box over the whole one-channel frame: reading three channels at its
  // last pixel would run past the buffer.
  FaceDetection whole = found[0];
  whole.bbox = BBox{0, 0, gray.width(), gray.height()};
  EXPECT_EQ(rec.Recognize(gray, whole).id, -1);
}

TEST(FaceEmbedder, DifferentMarkersFarApart) {
  FaceEmbedder emb;
  FaceDetector det;
  auto embed_marker = [&](Rgb marker) {
    ImageRgb crop = RenderFaceCrop(64, Emotion::kNeutral, 1.0, 0, 0, marker);
    auto found = det.Detect(crop);
    EXPECT_EQ(found.size(), 1u);
    return emb.Embed(crop, found[0]);
  };
  auto a = embed_marker(Rgb{230, 200, 40});
  auto b = embed_marker(Rgb{40, 80, 220});
  auto a2 = embed_marker(Rgb{230, 200, 40});
  double d_ab = 0, d_aa = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    d_ab += (a[i] - b[i]) * (a[i] - b[i]);
    d_aa += (a[i] - a2[i]) * (a[i] - a2[i]);
  }
  EXPECT_GT(std::sqrt(d_ab), 10 * std::sqrt(d_aa) + 0.1);
}

}  // namespace
}  // namespace dievent
