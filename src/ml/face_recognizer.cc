#include "ml/face_recognizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"
#include "render/face_renderer.h"
#include "vision/face_detector.h"

namespace dievent {

namespace {

/// Weight of the marker-mean features relative to the histogram tail.
constexpr double kMarkerWeight = 3.0;

double Distance(const std::vector<double>& a, const std::vector<double>& b) {
  double d2 = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    d2 += d * d;
  }
  return std::sqrt(d2);
}

}  // namespace

std::vector<double> FaceEmbedder::Embed(const ImageRgb& frame,
                                        const FaceDetection& det) const {
  std::vector<double> emb;
  EmbedInto(frame, det, &emb);
  return emb;
}

void FaceEmbedder::EmbedInto(const ImageRgb& frame, const FaceDetection& det,
                             std::vector<double>* out) const {
  // lint: hot-path-begin(face-embed)
  std::vector<double>& emb = *out;
  emb.clear();
  emb.reserve(kDims);

  // Marker (cap) region mean color.
  const double r = det.radius_px;
  const double cx = det.center_px.x;
  const double cy = det.center_px.y + face_model::kHatOffsetY * r;
  const double hr = face_model::kHatRadius * r;
  double sum[3] = {0, 0, 0};
  long long n = 0;
  int x0 = std::max(0, static_cast<int>(cx - hr));
  int x1 = std::min(frame.width() - 1, static_cast<int>(cx + hr));
  int y0 = std::max(0, static_cast<int>(cy - hr));
  int y1 = std::min(frame.height() - 1, static_cast<int>(cy + hr));
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      double dx = x - cx, dy = y - cy;
      if (dx * dx + dy * dy > hr * hr) continue;
      for (int c = 0; c < 3; ++c) sum[c] += frame.at(x, y, c);
      ++n;
    }
  }
  for (int c = 0; c < 3; ++c) {
    emb.push_back(n > 0 ? kMarkerWeight * sum[c] / (255.0 * n) : 0.0);
  }

  // Coarse 4x4x4 color histogram of the whole head box.
  double hist[64] = {};
  long long total = 0;
  for (int y = std::max(0, det.bbox.y);
       y < std::min(frame.height(), det.bbox.y2()); ++y) {
    for (int x = std::max(0, det.bbox.x);
         x < std::min(frame.width(), det.bbox.x2()); ++x) {
      int ri = frame.at(x, y, 0) / 64;
      int gi = frame.at(x, y, 1) / 64;
      int bi = frame.at(x, y, 2) / 64;
      hist[static_cast<size_t>(ri) * 16 + gi * 4 + bi] += 1.0;
      ++total;
    }
  }
  for (double v : hist) emb.push_back(total > 0 ? v / total : 0.0);
  // lint: hot-path-end
}

Status FaceRecognizer::Enroll(
    int id, const std::string& name,
    const std::vector<std::vector<double>>& embeddings) {
  if (embeddings.empty()) {
    return Status::InvalidArgument("gallery must not be empty");
  }
  std::vector<double> centroid(embeddings[0].size(), 0.0);
  for (const auto& e : embeddings) {
    if (e.size() != centroid.size()) {
      return Status::InvalidArgument("inconsistent embedding sizes");
    }
    for (size_t i = 0; i < e.size(); ++i) centroid[i] += e[i];
  }
  for (double& v : centroid) v /= static_cast<double>(embeddings.size());
  centroids_.push_back(Enrolled{id, name, std::move(centroid)});
  return Status::OK();
}

Status FaceRecognizer::EnrollProfiles(
    const std::vector<ParticipantProfile>& profiles) {
  // Gallery crops are run through the real FaceDetector so the embedded
  // region matches what live detections will produce (tight head boxes,
  // not whole crops).
  FaceDetector detector;
  for (const ParticipantProfile& profile : profiles) {
    // Frontal and back-of-head appearances form distinct clusters in
    // embedding space, so each view enrolls its own centroid.
    for (bool front : {true, false}) {
      std::vector<std::vector<double>> gallery;
      for (int size : {28, 44, 64}) {
        ImageRgb crop(size, size, 3);
        for (int y = 0; y < size; ++y)
          for (int x = 0; x < size; ++x)
            PutRgb(&crop, x, y, face_model::kDefaultBackground);
        FaceRenderParams p;
        p.center_px = Vec2{size / 2.0, size / 2.0};
        p.radius_px = size * 0.46;
        p.marker_color = profile.marker_color;
        p.front_facing = front;
        RenderFace(&crop, p);
        std::vector<FaceDetection> dets = detector.Detect(crop);
        if (dets.empty()) continue;
        gallery.push_back(embedder_.Embed(crop, dets[0]));
      }
      if (gallery.empty()) {
        return Status::Internal("gallery detection failed for " +
                                profile.name);
      }
      DIEVENT_RETURN_NOT_OK(
          Enroll(profile.id, profile.name, gallery)
              .WithContext("enrolling " + profile.name));
    }
  }
  return Status::OK();
}

IdentityMatch FaceRecognizer::Recognize(
    const std::vector<double>& embedding) const {
  IdentityMatch best;
  double best_d = std::numeric_limits<double>::infinity();
  for (const Enrolled& e : centroids_) {
    if (e.centroid.size() != embedding.size()) continue;
    double d = Distance(embedding, e.centroid);
    if (d < best_d) {
      best_d = d;
      best.id = e.id;
    }
  }
  // Margin against the best *other* identity (an id may own several view
  // centroids; those must not count as the runner-up).
  double second_d = std::numeric_limits<double>::infinity();
  for (const Enrolled& e : centroids_) {
    if (e.id == best.id || e.centroid.size() != embedding.size()) continue;
    second_d = std::min(second_d, Distance(embedding, e.centroid));
  }
  if (best.id < 0 || best_d > reject_distance_) {
    return IdentityMatch{};
  }
  best.distance = best_d;
  best.confidence =
      std::isinf(second_d) ? 1.0 : 1.0 - best_d / (second_d + 1e-12);
  return best;
}

IdentityMatch FaceRecognizer::Recognize(const ImageRgb& frame,
                                        const FaceDetection& det) const {
  // One head per detection per frame, from concurrent vision tasks: the
  // embedding's capacity is reused per thread.
  thread_local std::vector<double> embedding;
  embedder_.EmbedInto(frame, det, &embedding);
  return Recognize(embedding);
}

}  // namespace dievent
