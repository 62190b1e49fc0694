#include "image/image.h"

#include <gtest/gtest.h>

namespace dievent {
namespace {

TEST(Image, ConstructionZeroInitializes) {
  ImageU8 img(4, 3);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.channels(), 1);
  EXPECT_EQ(img.size(), 12u);
  for (uint8_t v : img.data()) EXPECT_EQ(v, 0);
}

TEST(Image, DefaultIsEmpty) {
  ImageU8 img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.width(), 0);
}

TEST(Image, AtReadsAndWritesInterleaved) {
  ImageRgb img(2, 2, 3);
  img.at(1, 0, 0) = 10;
  img.at(1, 0, 1) = 20;
  img.at(1, 0, 2) = 30;
  EXPECT_EQ(img.at(1, 0, 0), 10);
  EXPECT_EQ(GetRgb(img, 1, 0), (Rgb{10, 20, 30}));
  // Layout: row-major interleaved.
  EXPECT_EQ(img.data()[3], 10);
}

TEST(Image, InsideBoundsCheck) {
  ImageU8 img(3, 2);
  EXPECT_TRUE(img.Inside(0, 0));
  EXPECT_TRUE(img.Inside(2, 1));
  EXPECT_FALSE(img.Inside(3, 0));
  EXPECT_FALSE(img.Inside(0, 2));
  EXPECT_FALSE(img.Inside(-1, 0));
}

TEST(Image, FillSetsEverything) {
  ImageU8 img(5, 5);
  img.Fill(77);
  for (uint8_t v : img.data()) EXPECT_EQ(v, 77);
}

TEST(Image, AtClampedExtendsBorder) {
  ImageU8 img(2, 2);
  img.at(0, 0) = 1;
  img.at(1, 0) = 2;
  img.at(0, 1) = 3;
  img.at(1, 1) = 4;
  EXPECT_EQ(img.AtClamped(-5, -5), 1);
  EXPECT_EQ(img.AtClamped(10, -1), 2);
  EXPECT_EQ(img.AtClamped(-1, 10), 3);
  EXPECT_EQ(img.AtClamped(10, 10), 4);
}

TEST(Image, CropCopiesWindow) {
  ImageU8 img(4, 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x)
      img.at(x, y) = static_cast<uint8_t>(y * 4 + x);
  ImageU8 crop;
  img.CropInto(1, 1, 2, 2, &crop);
  EXPECT_EQ(crop.width(), 2);
  EXPECT_EQ(crop.at(0, 0), 5);
  EXPECT_EQ(crop.at(1, 1), 10);
}

TEST(Image, CropClampsOutOfBounds) {
  ImageU8 img(2, 2);
  img.at(1, 1) = 9;
  ImageU8 crop;
  img.CropInto(1, 1, 3, 3, &crop);
  EXPECT_EQ(crop.width(), 3);
  // Everything clamps to the (1,1) corner value.
  for (uint8_t v : crop.data()) EXPECT_EQ(v, 9);
}

TEST(Image, EqualityIsDeep) {
  ImageU8 a(2, 2), b(2, 2);
  EXPECT_TRUE(a == b);
  b.at(0, 0) = 1;
  EXPECT_FALSE(a == b);
  ImageU8 c(2, 3);
  EXPECT_FALSE(a == c);
}

TEST(ToGray, UsesBt601Weights) {
  ImageRgb img(1, 1, 3);
  ImageU8 gray;
  PutRgb(&img, 0, 0, Rgb{255, 0, 0});
  ToGrayInto(img, &gray);
  EXPECT_EQ(gray.at(0, 0), 76);  // 0.299 * 255 rounded
  PutRgb(&img, 0, 0, Rgb{0, 255, 0});
  ToGrayInto(img, &gray);
  EXPECT_EQ(gray.at(0, 0), 150);
  PutRgb(&img, 0, 0, Rgb{255, 255, 255});
  ToGrayInto(img, &gray);
  EXPECT_EQ(gray.at(0, 0), 255);
}

TEST(PutRgb, OutOfBoundsIsNoop) {
  ImageRgb img(2, 2, 3);
  PutRgb(&img, -1, 0, Rgb{9, 9, 9});
  PutRgb(&img, 5, 5, Rgb{9, 9, 9});
  for (uint8_t v : img.data()) EXPECT_EQ(v, 0);
}

}  // namespace
}  // namespace dievent
