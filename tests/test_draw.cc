#include "image/draw.h"

#include <gtest/gtest.h>

#include <array>

namespace dievent {
namespace {

int CountColor(const ImageRgb& img, const Rgb& c) {
  int n = 0;
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      if (GetRgb(img, x, y) == c) ++n;
  return n;
}

constexpr Rgb kRed{255, 0, 0};

TEST(FillRect, CoversExactArea) {
  ImageRgb img(10, 10, 3);
  FillRect(&img, 2, 3, 4, 5, kRed);
  EXPECT_EQ(CountColor(img, kRed), 20);
  EXPECT_EQ(GetRgb(img, 2, 3), kRed);
  EXPECT_EQ(GetRgb(img, 5, 7), kRed);
  EXPECT_NE(GetRgb(img, 6, 3), kRed);
}

TEST(FillRect, ClipsAtBorders) {
  ImageRgb img(4, 4, 3);
  FillRect(&img, -2, -2, 4, 4, kRed);
  EXPECT_EQ(CountColor(img, kRed), 4);  // only the 2x2 inside
  FillRect(&img, 3, 3, 10, 10, kRed);
  EXPECT_EQ(GetRgb(img, 3, 3), kRed);
}

TEST(FillRect, MatchesPerPixelReferenceWhenClippedOrEmpty) {
  for (auto [x0, y0, w, h] :
       {std::array{-3, -2, 10, 6}, {5, 4, 100, 100}, {-10, 0, 5, 5},
        {2, 3, 0, 4}, {0, 0, 64, 32}}) {
    ImageRgb want(64, 32, 3);
    want.Fill(9);
    ImageRgb got = want;
    for (int y = y0; y < y0 + h; ++y) {
      for (int x = x0; x < x0 + w; ++x) PutRgb(&want, x, y, Rgb{1, 2, 3});
    }
    FillRect(&got, x0, y0, w, h, Rgb{1, 2, 3});
    EXPECT_TRUE(got == want) << x0 << "," << y0 << " " << w << "x" << h;
  }
}

TEST(FillCircle, AreaApproximatesPiR2) {
  ImageRgb img(101, 101, 3);
  FillCircle(&img, 50, 50, 20, kRed);
  int area = CountColor(img, kRed);
  EXPECT_NEAR(area, 3.14159 * 400, 50);
  EXPECT_EQ(GetRgb(img, 50, 50), kRed);
  EXPECT_NE(GetRgb(img, 50 + 21, 50), kRed);
}

TEST(FillEllipse, RespectsRadii) {
  ImageRgb img(101, 101, 3);
  FillEllipse(&img, 50, 50, 30, 10, kRed);
  EXPECT_EQ(GetRgb(img, 79, 50), kRed);
  EXPECT_NE(GetRgb(img, 50, 79), kRed);
  EXPECT_EQ(GetRgb(img, 50, 59), kRed);
}

TEST(FillEllipse, DegenerateRadiiAreNoop) {
  ImageRgb img(10, 10, 3);
  FillEllipse(&img, 5, 5, 0, 5, kRed);
  FillEllipse(&img, 5, 5, 5, -1, kRed);
  EXPECT_EQ(CountColor(img, kRed), 0);
}

TEST(DrawCircle, LeavesInteriorEmpty) {
  ImageRgb img(101, 101, 3);
  DrawCircle(&img, 50, 50, 20, kRed, 2.0);
  EXPECT_NE(GetRgb(img, 50, 50), kRed);
  EXPECT_EQ(GetRgb(img, 70, 50), kRed);
}

TEST(DrawLine, ConnectsEndpoints) {
  ImageRgb img(20, 20, 3);
  DrawLine(&img, {2, 2}, {17, 17}, kRed);
  EXPECT_EQ(GetRgb(img, 2, 2), kRed);
  EXPECT_EQ(GetRgb(img, 17, 17), kRed);
  EXPECT_EQ(GetRgb(img, 10, 10), kRed);
  EXPECT_NE(GetRgb(img, 2, 17), kRed);
}

TEST(DrawLine, ZeroLengthDrawsDot) {
  ImageRgb img(10, 10, 3);
  DrawLine(&img, {5, 5}, {5, 5}, kRed, 3.0);
  EXPECT_EQ(GetRgb(img, 5, 5), kRed);
}

TEST(DrawArrow, HeadStrokesPresent) {
  ImageRgb img(40, 40, 3);
  DrawArrow(&img, {5, 20}, {35, 20}, kRed, 1.0, 8.0);
  EXPECT_EQ(GetRgb(img, 35, 20), kRed);
  // Head strokes rise above and below the shaft near the tip.
  bool above = false, below = false;
  for (int x = 25; x <= 35; ++x) {
    for (int dy = 1; dy <= 5; ++dy) {
      if (GetRgb(img, x, 20 - dy) == kRed) above = true;
      if (GetRgb(img, x, 20 + dy) == kRed) below = true;
    }
  }
  EXPECT_TRUE(above);
  EXPECT_TRUE(below);
}

TEST(FillConvexPolygon, FillsTriangle) {
  ImageRgb img(30, 30, 3);
  FillConvexPolygon(&img, {{5, 5}, {25, 5}, {15, 25}}, kRed);
  EXPECT_EQ(GetRgb(img, 15, 10), kRed);
  EXPECT_NE(GetRgb(img, 5, 25), kRed);
  EXPECT_NE(GetRgb(img, 25, 25), kRed);
}

TEST(FillConvexPolygon, QuadCoversRectangle) {
  ImageRgb img(20, 20, 3);
  FillConvexPolygon(&img, {{3, 3}, {16, 3}, {16, 12}, {3, 12}}, kRed);
  // Interior definitely covered.
  for (int y = 4; y <= 11; ++y)
    for (int x = 4; x <= 15; ++x) EXPECT_EQ(GetRgb(img, x, y), kRed);
  EXPECT_NE(GetRgb(img, 2, 2), kRed);
}

TEST(FillConvexPolygon, FewerThanThreePointsIsNoop) {
  ImageRgb img(10, 10, 3);
  FillConvexPolygon(&img, {{1, 1}, {8, 8}}, kRed);
  EXPECT_EQ(CountColor(img, kRed), 0);
}

}  // namespace
}  // namespace dievent
