#include "image/draw.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace dievent {

namespace {

/// Address of pixel (x, y) in a 3-channel image; the caller has clipped.
uint8_t* PixelAddress(ImageRgb* img, int x, int y) {
  return img->data().data() +
         (static_cast<size_t>(y) * img->width() + x) * 3;
}

/// Writes `color` to the already clipped pixels [xa, xb) of row y.
void FillSpan(ImageRgb* img, int y, int xa, int xb, const Rgb& color) {
  uint8_t* p = PixelAddress(img, xa, y);
  for (int x = xa; x < xb; ++x, p += 3) {
    p[0] = color.r;
    p[1] = color.g;
    p[2] = color.b;
  }
}

}  // namespace

void FillRect(ImageRgb* img, int x0, int y0, int w, int h,
              const Rgb& color) {
  assert(img->channels() == 3);
  const int xa = std::max(0, x0);
  const int ya = std::max(0, y0);
  const int xb = std::min(img->width(), x0 + w);
  const int yb = std::min(img->height(), y0 + h);
  if (xa >= xb || ya >= yb) return;
  // One row pixel by pixel, then every other row as a copy of it.
  FillSpan(img, ya, xa, xb, color);
  const uint8_t* first = PixelAddress(img, xa, ya);
  const size_t bytes = static_cast<size_t>(xb - xa) * 3;
  for (int y = ya + 1; y < yb; ++y) {
    std::memcpy(PixelAddress(img, xa, y), first, bytes);
  }
}

void FillCircle(ImageRgb* img, double cx, double cy, double r,
                const Rgb& color) {
  FillEllipse(img, cx, cy, r, r, color);
}

void DrawCircle(ImageRgb* img, double cx, double cy, double r,
                const Rgb& color, double thickness) {
  double router = r + thickness / 2.0;
  double rinner = std::max(0.0, r - thickness / 2.0);
  int xa = static_cast<int>(std::floor(cx - router));
  int xb = static_cast<int>(std::ceil(cx + router));
  int ya = static_cast<int>(std::floor(cy - router));
  int yb = static_cast<int>(std::ceil(cy + router));
  double ro2 = router * router, ri2 = rinner * rinner;
  for (int y = ya; y <= yb; ++y) {
    for (int x = xa; x <= xb; ++x) {
      double dx = x - cx, dy = y - cy;
      double d2 = dx * dx + dy * dy;
      if (d2 <= ro2 && d2 >= ri2) PutRgb(img, x, y, color);
    }
  }
}

void FillEllipse(ImageRgb* img, double cx, double cy, double rx, double ry,
                 const Rgb& color) {
  if (rx <= 0 || ry <= 0) return;
  int xa = static_cast<int>(std::floor(cx - rx));
  int xb = static_cast<int>(std::ceil(cx + rx));
  int ya = static_cast<int>(std::floor(cy - ry));
  int yb = static_cast<int>(std::ceil(cy + ry));
  for (int y = ya; y <= yb; ++y) {
    for (int x = xa; x <= xb; ++x) {
      double nx = (x - cx) / rx, ny = (y - cy) / ry;
      if (nx * nx + ny * ny <= 1.0) PutRgb(img, x, y, color);
    }
  }
}

void DrawLine(ImageRgb* img, Vec2 a, Vec2 b, const Rgb& color,
              double thickness) {
  Vec2 d = b - a;
  double len = d.Norm();
  if (len < 1e-9) {
    FillCircle(img, a.x, a.y, thickness / 2.0, color);
    return;
  }
  int steps = static_cast<int>(std::ceil(len * 2.0));
  for (int i = 0; i <= steps; ++i) {
    Vec2 p = a + d * (static_cast<double>(i) / steps);
    if (thickness <= 1.0) {
      PutRgb(img, static_cast<int>(std::lround(p.x)),
             static_cast<int>(std::lround(p.y)), color);
    } else {
      FillCircle(img, p.x, p.y, thickness / 2.0, color);
    }
  }
}

void DrawArrow(ImageRgb* img, Vec2 a, Vec2 b, const Rgb& color,
               double thickness, double head_len) {
  DrawLine(img, a, b, color, thickness);
  Vec2 d = (b - a).Normalized();
  Vec2 n{-d.y, d.x};
  Vec2 base = b - d * head_len;
  DrawLine(img, b, base + n * (head_len * 0.5), color, thickness);
  DrawLine(img, b, base - n * (head_len * 0.5), color, thickness);
}

void FillConvexPolygon(ImageRgb* img, const std::vector<Vec2>& pts,
                       const Rgb& color) {
  assert(img->channels() == 3);
  if (pts.size() < 3) return;
  double ymin = pts[0].y, ymax = pts[0].y;
  for (const Vec2& p : pts) {
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
  int y0 = std::max(0, static_cast<int>(std::ceil(ymin)));
  int y1 = std::min(img->height() - 1, static_cast<int>(std::floor(ymax)));
  const size_t n = pts.size();
  for (int y = y0; y <= y1; ++y) {
    double xmin = 1e30, xmax = -1e30;
    for (size_t i = 0; i < n; ++i) {
      const Vec2& a = pts[i];
      const Vec2& b = pts[(i + 1) % n];
      // Does edge (a, b) cross scanline y?
      if ((a.y <= y && b.y >= y) || (b.y <= y && a.y >= y)) {
        double denom = b.y - a.y;
        double x = (std::abs(denom) < 1e-12)
                       ? std::min(a.x, b.x)
                       : a.x + (y - a.y) / denom * (b.x - a.x);
        xmin = std::min(xmin, x);
        xmax = std::max(xmax, x);
        if (std::abs(denom) < 1e-12) xmax = std::max(xmax, std::max(a.x, b.x));
      }
    }
    if (xmin > xmax) continue;
    int xa = std::max(0, static_cast<int>(std::ceil(xmin)));
    int xb = std::min(img->width() - 1, static_cast<int>(std::floor(xmax)));
    if (xa <= xb) FillSpan(img, y, xa, xb + 1, color);
  }
}

}  // namespace dievent
