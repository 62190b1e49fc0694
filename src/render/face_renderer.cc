#include "render/face_renderer.h"

#include <algorithm>
#include <cmath>

#include "image/draw.h"

namespace dievent {

namespace {

using namespace face_model;  // NOLINT — appearance constants

/// Draws a parabolic mouth curve. `bend` > 0 bends the centre downward in
/// image coordinates (a smile: corners up); < 0 bends it upward (a frown).
void DrawMouthCurve(ImageRgb* c, const Vec2& center, double r, double bend,
                    double half_width, double thickness) {
  const int segments = 12;
  Vec2 prev;
  for (int i = 0; i <= segments; ++i) {
    double u = -1.0 + 2.0 * i / segments;  // -1..1 across the mouth
    Vec2 p{center.x + u * half_width * r,
           center.y + kMouthY * r + bend * r * (1.0 - u * u)};
    if (i > 0) DrawLine(c, prev, p, kMouth, thickness);
    prev = p;
  }
}

/// Draws one eyebrow. `tilt` shifts the *inner* end vertically (image
/// coords: positive = down = angry, negative = up = sad) and `raise`
/// shifts the whole brow up.
void DrawBrow(ImageRgb* c, const Vec2& face_center, double r, int side,
              double tilt, double raise, double thickness) {
  double ex = side * kEyeOffsetX * r;
  double ey = (kEyeOffsetY - 0.20) * r - raise * r;
  Vec2 outer{face_center.x + ex + side * 0.14 * r, face_center.y + ey};
  Vec2 inner{face_center.x + ex - side * 0.14 * r,
             face_center.y + ey + tilt * r};
  DrawLine(c, outer, inner, kBrow, thickness);
}

void DrawExpression(ImageRgb* c, const Vec2& center, double r,
                    Emotion emotion, double intensity) {
  const double i = std::clamp(intensity, 0.0, 1.0);
  const double th = std::max(1.0, 0.07 * r);
  switch (emotion) {
    case Emotion::kNeutral:
      DrawMouthCurve(c, center, r, 0.0, 0.30, th);
      DrawBrow(c, center, r, -1, 0.0, 0.0, th);
      DrawBrow(c, center, r, +1, 0.0, 0.0, th);
      break;
    case Emotion::kHappy:
      DrawMouthCurve(c, center, r, 0.16 * i, 0.36, th);
      DrawBrow(c, center, r, -1, 0.0, 0.02 * i, th);
      DrawBrow(c, center, r, +1, 0.0, 0.02 * i, th);
      break;
    case Emotion::kSad:
      DrawMouthCurve(c, center, r, -0.14 * i, 0.30, th);
      DrawBrow(c, center, r, -1, -0.10 * i, 0.0, th);
      DrawBrow(c, center, r, +1, -0.10 * i, 0.0, th);
      break;
    case Emotion::kAngry:
      DrawMouthCurve(c, center, r, -0.04 * i, 0.26, th * 1.3);
      DrawBrow(c, center, r, -1, 0.12 * i, -0.02 * i, th * 1.2);
      DrawBrow(c, center, r, +1, 0.12 * i, -0.02 * i, th * 1.2);
      break;
    case Emotion::kDisgust: {
      // Tilted mouth + one lowered brow (asymmetric).
      Vec2 a{center.x - 0.28 * r, center.y + (kMouthY - 0.04 * i) * r};
      Vec2 b{center.x + 0.28 * r, center.y + (kMouthY + 0.06 * i) * r};
      DrawLine(c, a, b, kMouth, th * 1.2);
      DrawBrow(c, center, r, -1, 0.10 * i, -0.04 * i, th);
      DrawBrow(c, center, r, +1, -0.02 * i, 0.06 * i, th);
      break;
    }
    case Emotion::kFear:
      // Wide flat open mouth, raised brows.
      FillEllipse(c, center.x, center.y + kMouthY * r, 0.22 * r,
                  (0.05 + 0.06 * i) * r, kMouth);
      DrawBrow(c, center, r, -1, -0.04 * i, 0.10 * i, th);
      DrawBrow(c, center, r, +1, -0.04 * i, 0.10 * i, th);
      break;
    case Emotion::kSurprise:
      // Round open mouth, strongly raised brows.
      FillEllipse(c, center.x, center.y + kMouthY * r, 0.11 * r,
                  (0.08 + 0.10 * i) * r, kMouth);
      DrawBrow(c, center, r, -1, 0.0, 0.14 * i, th);
      DrawBrow(c, center, r, +1, 0.0, 0.14 * i, th);
      break;
  }
}

}  // namespace

void RenderFace(ImageRgb* canvas, const FaceRenderParams& p) {
  const double r = p.radius_px;
  if (r < 1.0) return;
  const Vec2 c = p.center_px;

  if (!p.front_facing) {
    // Back of the head: hair disc plus the identity cap.
    FillCircle(canvas, c.x, c.y, r, kHair);
    FillCircle(canvas, c.x, c.y + kHatOffsetY * r, kHatRadius * r,
               p.marker_color);
    return;
  }

  FillCircle(canvas, c.x, c.y, r, kSkin);
  FillCircle(canvas, c.x, c.y + kHatOffsetY * r, kHatRadius * r,
             p.marker_color);

  // Eyes with gaze-encoding irises.
  const double er = kEyeRadius * r;
  for (int side : {-1, +1}) {
    double ex = c.x + side * kEyeOffsetX * r;
    double ey = c.y + kEyeOffsetY * r;
    FillEllipse(canvas, ex, ey, er, er * 0.75, kEyeWhite);
    double ix = ex + std::clamp(p.gaze_x, -1.0, 1.0) * kIrisSwing * er;
    double iy = ey + std::clamp(p.gaze_y, -1.0, 1.0) * kIrisSwing * er * 0.75;
    FillCircle(canvas, ix, iy, kIrisRadius * er, kIris);
  }

  DrawExpression(canvas, c, r, p.emotion, p.intensity);
}

ImageRgb RenderFaceCrop(int size, Emotion emotion, double intensity,
                        double gaze_x, double gaze_y, Rgb marker_color,
                        Rgb background) {
  ImageRgb crop(size, size, 3);
  FillRect(&crop, 0, 0, size, size, background);
  FaceRenderParams p;
  p.center_px = {size / 2.0, size / 2.0};
  p.radius_px = size * 0.46;
  p.marker_color = marker_color;
  p.emotion = emotion;
  p.intensity = intensity;
  p.gaze_x = gaze_x;
  p.gaze_y = gaze_y;
  p.front_facing = true;
  RenderFace(&crop, p);
  return crop;
}

}  // namespace dievent
