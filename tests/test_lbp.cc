#include "ml/lbp.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"

namespace dievent {
namespace {

TEST(UniformLbpBin, MapsUniformCodesDistinctly) {
  // 0 and 255 (0 transitions) are uniform; 0b01010101 (8 transitions) is
  // not. There are exactly 58 uniform codes mapping to bins [0, 58) and
  // everything else maps to bin 58.
  std::set<int> uniform_bins;
  int nonuniform = 0;
  for (int code = 0; code < 256; ++code) {
    int bin = UniformLbpBin(static_cast<uint8_t>(code));
    ASSERT_GE(bin, 0);
    ASSERT_LT(bin, kUniformLbpBins);
    int transitions = 0;
    for (int b = 0; b < 8; ++b) {
      if (((code >> b) & 1) != ((code >> ((b + 1) % 8)) & 1)) ++transitions;
    }
    if (transitions <= 2) {
      uniform_bins.insert(bin);
      EXPECT_LT(bin, 58);
    } else {
      EXPECT_EQ(bin, 58);
      ++nonuniform;
    }
  }
  EXPECT_EQ(uniform_bins.size(), 58u);
  EXPECT_EQ(nonuniform, 256 - 58);
}

TEST(ComputeLbpCodes, FlatImageIsAllOnes) {
  // Equal neighbours compare >= centre, so a flat image yields code 255.
  ImageU8 img(5, 5);
  img.Fill(100);
  ImageU8 codes;
  ComputeLbpCodesInto(img, &codes);
  for (uint8_t c : codes.data()) EXPECT_EQ(c, 255);
}

TEST(ComputeLbpCodes, BrightCenterIsZero) {
  ImageU8 img(3, 3);
  img.Fill(10);
  img.at(1, 1) = 200;
  ImageU8 codes;
  ComputeLbpCodesInto(img, &codes);
  EXPECT_EQ(codes.at(1, 1), 0);
}

TEST(ComputeLbpCodes, InvariantToMonotoneBrightnessShift) {
  // LBP's selling point: invariance to monotonic illumination changes.
  Rng rng(91);
  ImageU8 a(16, 16);
  for (uint8_t& v : a.data()) v = static_cast<uint8_t>(rng.NextBelow(200));
  ImageU8 b = a;
  for (uint8_t& v : b.data()) v = static_cast<uint8_t>(v + 55);
  ImageU8 codes_a, codes_b;
  ComputeLbpCodesInto(a, &codes_a);
  ComputeLbpCodesInto(b, &codes_b);
  EXPECT_TRUE(codes_a == codes_b);
}

TEST(LbpGridFeatures, ConcatenatesPerCellHistograms) {
  Rng rng(93);
  ImageU8 img(24, 24);
  for (uint8_t& v : img.data()) v = static_cast<uint8_t>(rng.NextBelow(256));
  ImageU8 codes;
  std::vector<float> f;
  LbpGridFeaturesInto(img, 4, 3, &codes, &f);
  EXPECT_EQ(f.size(), static_cast<size_t>(4 * 3 * kUniformLbpBins));
  // Each cell sums to 1.
  for (int cell = 0; cell < 12; ++cell) {
    float total = 0;
    for (int b = 0; b < kUniformLbpBins; ++b)
      total += f[cell * kUniformLbpBins + b];
    EXPECT_NEAR(total, 1.0f, 1e-5) << cell;
  }
}

TEST(LbpGridFeatures, DistinguishesTextures) {
  // Horizontal stripes vs vertical stripes produce different features.
  ImageU8 horiz(24, 24), vert(24, 24);
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 24; ++x) {
      horiz.at(x, y) = (y % 4 < 2) ? 200 : 30;
      vert.at(x, y) = (x % 4 < 2) ? 200 : 30;
    }
  ImageU8 codes;
  std::vector<float> fh, fv;
  LbpGridFeaturesInto(horiz, 2, 2, &codes, &fh);
  LbpGridFeaturesInto(vert, 2, 2, &codes, &fv);
  double dist = 0;
  for (size_t i = 0; i < fh.size(); ++i) dist += std::abs(fh[i] - fv[i]);
  EXPECT_GT(dist, 0.5);
}

}  // namespace
}  // namespace dievent
