#include "image/resize.h"

#include <gtest/gtest.h>

namespace dievent {
namespace {

TEST(Resize, IdentitySizeKeepsContent) {
  ImageU8 img(6, 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 6; ++x)
      img.at(x, y) = static_cast<uint8_t>(x * 20 + y * 3);
  ImageU8 out;
  ResizeBilinearInto(img, 6, 4, &out);
  EXPECT_TRUE(out == img);
}

TEST(Resize, UniformStaysUniform) {
  ImageU8 img(10, 10);
  img.Fill(77);
  ImageU8 out;  // reused across sizes, as the emotion path's scratch is
  for (auto [w, h] : {std::pair{5, 5}, {20, 20}, {3, 17}}) {
    ResizeBilinearInto(img, w, h, &out);
    EXPECT_EQ(out.width(), w);
    EXPECT_EQ(out.height(), h);
    for (uint8_t v : out.data()) EXPECT_EQ(v, 77);
  }
}

TEST(Resize, DownscalePreservesMeanApproximately) {
  ImageU8 img(16, 16);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x)
      img.at(x, y) = static_cast<uint8_t>((x < 8) ? 40 : 200);
  ImageU8 out;
  ResizeBilinearInto(img, 4, 4, &out);
  double mean = 0;
  for (uint8_t v : out.data()) mean += v;
  mean /= out.size();
  EXPECT_NEAR(mean, 120.0, 15.0);
}

TEST(Resize, UpscaleInterpolatesGradient) {
  ImageU8 img(2, 1);
  img.at(0, 0) = 0;
  img.at(1, 0) = 200;
  ImageU8 out;
  ResizeBilinearInto(img, 8, 1, &out);
  // Monotone non-decreasing across the row.
  for (int x = 1; x < 8; ++x) EXPECT_GE(out.at(x, 0), out.at(x - 1, 0));
  EXPECT_LT(out.at(0, 0), 50);
  EXPECT_GT(out.at(7, 0), 150);
}

}  // namespace
}  // namespace dievent
