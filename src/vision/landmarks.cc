#include "vision/landmarks.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "render/face_renderer.h"

namespace dievent {

namespace {

/// Color gate half-widths.
constexpr int kEyeWhiteTolerance = 60;
/// Tight enough to exclude eyebrow pixels (kBrow is 35 levels away).
constexpr int kIrisTolerance = 30;
/// Tight enough to exclude hair pixels from occluding heads.
constexpr int kMouthTolerance = 45;

bool Near(const ImageRgb& img, int x, int y, const Rgb& ref, int tol) {
  return std::abs(img.at(x, y, 0) - ref.r) <= tol &&
         std::abs(img.at(x, y, 1) - ref.g) <= tol &&
         std::abs(img.at(x, y, 2) - ref.b) <= tol;
}

/// Centroid of pixels matching `ref` inside a rectangular window of
/// half-extents (rx, ry); false when none match.
bool ColorCentroid(const ImageRgb& img, const Vec2& center, double rx,
                   double ry, const Rgb& ref, int tol, Vec2* out) {
  int x0 = std::max(0, static_cast<int>(center.x - rx));
  int x1 = std::min(img.width() - 1, static_cast<int>(center.x + rx));
  int y0 = std::max(0, static_cast<int>(center.y - ry));
  int y1 = std::min(img.height() - 1, static_cast<int>(center.y + ry));
  double sx = 0, sy = 0;
  long long n = 0;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      if (Near(img, x, y, ref, tol)) {
        sx += x;
        sy += y;
        ++n;
      }
    }
  }
  if (n == 0) return false;
  *out = Vec2{sx / n, sy / n};
  return true;
}

}  // namespace

FaceLandmarks LandmarkLocalizer::Localize(
    const ImageRgb& frame, const FaceDetection& det) const {
  FaceLandmarks lm;
  if (!det.front_facing || det.radius_px < 4.0) return lm;

  const double r = det.radius_px;
  const Vec2 c = det.center_px;
  // Window half-extents: wide enough to contain the full eye ellipse plus
  // maximal iris excursion even under ~1 px detection-centre error, while
  // staying below the identity cap's lower edge (at -0.36 r) so dark cap
  // pixels can never pollute an iris centroid, and staying clear of the
  // other eye's window.
  const double rx = 0.26 * r;
  const double ry = 0.175 * r;

  // Eye sockets: centroid of eye-white pixels near the nominal position.
  // The iris hides part of the white, biasing the centroid away from the
  // iris; the socket centre is therefore refined as the midpoint between
  // the nominal model position and the white centroid.
  bool ok = true;
  Vec2 nominal_left{c.x - face_model::kEyeOffsetX * r,
                    c.y + face_model::kEyeOffsetY * r};
  Vec2 nominal_right{c.x + face_model::kEyeOffsetX * r,
                     c.y + face_model::kEyeOffsetY * r};
  Vec2 white_left, white_right;
  ok &= ColorCentroid(frame, nominal_left, rx, ry, face_model::kEyeWhite,
                      kEyeWhiteTolerance, &white_left);
  ok &= ColorCentroid(frame, nominal_right, rx, ry, face_model::kEyeWhite,
                      kEyeWhiteTolerance, &white_right);
  if (ok) {
    // Report the *measured white centroids* as the eye anchors. They are
    // biased away from the iris (the iris hides part of the white), but
    // that bias is a known function of the area ratio and the gaze
    // estimator divides it out — making the offset measurement immune to
    // detection-centre subpixel error.
    lm.left_eye = white_left;
    lm.right_eye = white_right;
    Vec2 iris_left, iris_right;
    bool iris_ok =
        ColorCentroid(frame, nominal_left, rx, ry, face_model::kIris,
                      kIrisTolerance, &iris_left) &&
        ColorCentroid(frame, nominal_right, rx, ry, face_model::kIris,
                      kIrisTolerance, &iris_right);
    if (iris_ok) {
      lm.left_iris = iris_left;
      lm.right_iris = iris_right;
      lm.eyes_valid = true;
    }
  }

  Vec2 mouth;
  if (ColorCentroid(frame,
                    Vec2{c.x, c.y + face_model::kMouthY * r},
                    0.5 * r, 0.4 * r, face_model::kMouth,
                    kMouthTolerance, &mouth)) {
    lm.mouth = mouth;
    lm.mouth_valid = true;
  }
  return lm;
}

}  // namespace dievent
