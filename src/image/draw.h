/// \file draw.h
/// 2-D rasterization primitives used by the synthetic-frame renderer and by
/// the look-at top-view map drawing (paper Fig. 7b/8b).

#ifndef DIEVENT_IMAGE_DRAW_H_
#define DIEVENT_IMAGE_DRAW_H_

#include <vector>

#include "geometry/vec.h"
#include "image/image.h"

namespace dievent {

/// Fills the axis-aligned rectangle [x0, x0+w) x [y0, y0+h), clipped.
/// Writes the first row and copies it to the others, so a whole-image
/// fill (the renderers' backgrounds) costs one row plus memcpy.
void FillRect(ImageRgb* img, int x0, int y0, int w, int h, const Rgb& color);

/// Fills a disc of radius r centred at (cx, cy), clipped.
void FillCircle(ImageRgb* img, double cx, double cy, double r,
                const Rgb& color);

/// Draws a circle outline of the given stroke thickness.
void DrawCircle(ImageRgb* img, double cx, double cy, double r,
                const Rgb& color, double thickness = 1.0);

/// Fills an axis-aligned ellipse with radii (rx, ry) centred at (cx, cy).
void FillEllipse(ImageRgb* img, double cx, double cy, double rx, double ry,
                 const Rgb& color);

/// Draws a line segment (Bresenham-style with thickness).
void DrawLine(ImageRgb* img, Vec2 a, Vec2 b, const Rgb& color,
              double thickness = 1.0);

/// Draws an arrow from a to b with a simple two-stroke head.
void DrawArrow(ImageRgb* img, Vec2 a, Vec2 b, const Rgb& color,
               double thickness = 1.0, double head_len = 8.0);

/// Scanline-fills a convex polygon given by its vertices in order. Each
/// scanline's span is clipped once and written through a row pointer.
void FillConvexPolygon(ImageRgb* img, const std::vector<Vec2>& pts,
                       const Rgb& color);

}  // namespace dievent

#endif  // DIEVENT_IMAGE_DRAW_H_
