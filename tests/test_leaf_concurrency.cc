// Concurrent calls into the vision and ml leaves that keep per-thread
// workspaces: FaceDetector::Detect (masks, labels, flood-fill stack),
// FaceRecognizer::Recognize (embedding) and EmotionRecognizer::Recognize
// (feature/forward scratch). Four threads walk the same rendered views and
// their half-size crops in different orders, so every thread's workspace
// is resized back and forth between frames of different size and crops of
// different content; each call must return exactly what a serial call
// returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "ml/emotion_recognizer.h"
#include "ml/face_recognizer.h"
#include "render/scene_renderer.h"
#include "sim/scenario.h"
#include "vision/face_detector.h"

namespace dievent {
namespace {

constexpr int kThreads = 4;
constexpr int kRounds = 2;

struct ViewResult {
  std::vector<FaceDetection> detections;
  std::vector<IdentityMatch> identities;
  /// Class probabilities per frontal detection of radius >= 8 px, in
  /// detection order.
  std::vector<std::vector<float>> emotions;
};

const EmotionRecognizer& SmallRecognizer() {
  static const EmotionRecognizer* recognizer = [] {
    EmotionRecognizerOptions opt;
    opt.hidden_units = 16;
    opt.samples_per_class = 12;
    opt.train.epochs = 3;
    Rng rng(42);
    auto trained = EmotionRecognizer::Train(opt, &rng);
    EXPECT_TRUE(trained.ok()) << trained.status();
    return new EmotionRecognizer(std::move(trained).TakeValue());
  }();
  return *recognizer;
}

/// Every camera at three instants, clean (sigma 0) and noisy (sigma 6),
/// each view followed by its centred half-size crop.
std::vector<ImageRgb> RenderViews(const DiningScene& scene) {
  std::vector<ImageRgb> views;
  for (double sigma : {0.0, 6.0}) {
    RenderOptions options;
    options.noise_sigma = sigma;
    for (double t : {5.0, 10.0, 15.0}) {
      for (int c = 0; c < scene.rig().NumCameras(); ++c) {
        Rng rng(static_cast<uint64_t>(1000 * t) + c);
        ImageRgb view = RenderViewAt(scene, t, c, options, &rng);
        ImageRgb crop;
        view.CropInto(view.width() / 4, view.height() / 4, view.width() / 2,
                      view.height() / 2, &crop);
        views.push_back(std::move(view));
        views.push_back(std::move(crop));
      }
    }
  }
  return views;
}

ViewResult AnalyzeView(const ImageRgb& frame, const FaceDetector& detector,
                       const FaceRecognizer& identities,
                       const EmotionRecognizer& emotions) {
  ViewResult out;
  out.detections = detector.Detect(frame);
  for (const FaceDetection& det : out.detections) {
    out.identities.push_back(identities.Recognize(frame, det));
    if (!det.front_facing || det.radius_px < 8.0) continue;
    // The pipeline's crop geometry: face radius = 0.46 * crop size.
    const double half = det.radius_px / 0.92;
    const int size = std::max(8, static_cast<int>(2.0 * half));
    ImageRgb crop;
    frame.CropInto(static_cast<int>(det.center_px.x - half),
                   static_cast<int>(det.center_px.y - half), size, size,
                   &crop);
    out.emotions.push_back(emotions.Recognize(crop).class_probabilities);
  }
  return out;
}

void ExpectSameView(const ViewResult& want, const ViewResult& got) {
  ASSERT_EQ(want.detections.size(), got.detections.size());
  for (size_t d = 0; d < want.detections.size(); ++d) {
    const FaceDetection& a = want.detections[d];
    const FaceDetection& b = got.detections[d];
    EXPECT_EQ(a.bbox.x, b.bbox.x);
    EXPECT_EQ(a.bbox.y, b.bbox.y);
    EXPECT_EQ(a.bbox.w, b.bbox.w);
    EXPECT_EQ(a.bbox.h, b.bbox.h);
    EXPECT_EQ(a.center_px.x, b.center_px.x);
    EXPECT_EQ(a.center_px.y, b.center_px.y);
    EXPECT_EQ(a.radius_px, b.radius_px);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.front_facing, b.front_facing);
    EXPECT_EQ(want.identities[d].id, got.identities[d].id);
    EXPECT_EQ(want.identities[d].distance, got.identities[d].distance);
    EXPECT_EQ(want.identities[d].confidence, got.identities[d].confidence);
  }
  EXPECT_EQ(want.emotions, got.emotions);
}

TEST(LeafConcurrency, ConcurrentCallsMatchSerialCalls) {
  const DiningScene scene = MakeMeetingScenario();
  std::vector<ParticipantProfile> profiles;
  for (const auto& p : scene.participants()) profiles.push_back(p.profile);
  FaceRecognizer identities;
  ASSERT_TRUE(identities.EnrollProfiles(profiles).ok());
  const EmotionRecognizer& emotions = SmallRecognizer();
  const FaceDetector detector;
  const std::vector<ImageRgb> views = RenderViews(scene);
  const int n = static_cast<int>(views.size());

  std::vector<ViewResult> serial;
  int faces = 0, emotion_calls = 0;
  for (const ImageRgb& view : views) {
    serial.push_back(AnalyzeView(view, detector, identities, emotions));
    faces += static_cast<int>(serial.back().detections.size());
    emotion_calls += static_cast<int>(serial.back().emotions.size());
  }
  // The sweep must actually exercise all three leaves.
  ASSERT_GT(faces, n);
  ASSERT_GT(emotion_calls, n / 2);

  // results[k][round * n + v]: thread k's answer for view v in that round.
  std::vector<std::vector<ViewResult>> results(
      kThreads, std::vector<ViewResult>(kRounds * n));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        // Each thread starts at a different view and walks in its own
        // direction, so concurrent calls see different frames.
        for (int i = 0; i < n; ++i) {
          const int v = k % 2 == 0 ? (i + k * n / kThreads) % n
                                   : (n - 1 - i + k * n / kThreads) % n;
          results[k][round * n + v] =
              AnalyzeView(views[v], detector, identities, emotions);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int k = 0; k < kThreads; ++k) {
    for (int slot = 0; slot < kRounds * n; ++slot) {
      SCOPED_TRACE(testing::Message() << "thread " << k << ", round "
                                      << slot / n << ", view " << slot % n);
      ExpectSameView(serial[slot % n], results[k][slot]);
    }
  }
}

}  // namespace
}  // namespace dievent
