#include "image/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "render/scene_renderer.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

/// The color histogram as it was computed before the fixed-point kernel:
/// counts and trilinear weight products summed in double precision, one
/// pixel at a time. Kept verbatim as the oracle the kernel must match bit
/// for bit.
Histogram DoubleLoopColorHistogram(const ImageRgb& rgb, int bins_per_channel,
                                   bool soft_binning) {
  Histogram h;
  const int n = bins_per_channel;
  h.bins.assign(static_cast<size_t>(n) * n * n, 0.0);
  const int div = 256 / n;
  const auto& d = rgb.data();
  if (!soft_binning) {
    for (size_t i = 0; i + 2 < d.size(); i += 3) {
      int r = d[i] / div, g = d[i + 1] / div, b = d[i + 2] / div;
      h.bins[(static_cast<size_t>(r) * n + g) * n + b] += 1.0;
    }
  } else {
    // Per-channel: value v sits at fractional bin position v/div - 0.5;
    // its mass is linearly split between floor and floor+1 (clamped).
    auto split = [&](uint8_t v, int* lo, double* w_hi) {
      double p = static_cast<double>(v) / div - 0.5;
      double fl = std::floor(p);
      *w_hi = p - fl;
      *lo = std::clamp(static_cast<int>(fl), 0, n - 1);
    };
    for (size_t i = 0; i + 2 < d.size(); i += 3) {
      int r0, g0, b0;
      double rw, gw, bw;
      split(d[i], &r0, &rw);
      split(d[i + 1], &g0, &gw);
      split(d[i + 2], &b0, &bw);
      for (int dr = 0; dr < 2; ++dr) {
        int r = std::min(n - 1, r0 + dr);
        double wr = dr ? rw : 1.0 - rw;
        if (wr == 0.0) continue;
        for (int dg = 0; dg < 2; ++dg) {
          int g = std::min(n - 1, g0 + dg);
          double wg = dg ? gw : 1.0 - gw;
          if (wg == 0.0) continue;
          for (int db = 0; db < 2; ++db) {
            int b = std::min(n - 1, b0 + db);
            double wb = db ? bw : 1.0 - bw;
            if (wb == 0.0) continue;
            h.bins[(static_cast<size_t>(r) * n + g) * n + b] +=
                wr * wg * wb;
          }
        }
      }
    }
  }
  double total = 0.0;
  for (double b : h.bins) total += b;
  if (total > 0.0) {
    for (double& b : h.bins) b /= total;
  }
  return h;
}

/// Asserts that the kernel matches the oracle bit for bit at every bin
/// count and binning mode the issue names.
void ExpectBitIdentical(const ImageRgb& img, const std::string& what) {
  for (int bins : {2, 4, 8, 16}) {
    for (bool soft : {false, true}) {
      SCOPED_TRACE(what + " bins=" + std::to_string(bins) +
                   (soft ? " soft" : " hard"));
      const Histogram got = ComputeColorHistogram(img, bins, soft);
      const Histogram want = DoubleLoopColorHistogram(img, bins, soft);
      ASSERT_EQ(got.bins.size(), want.bins.size());
      EXPECT_EQ(std::memcmp(got.bins.data(), want.bins.data(),
                            got.bins.size() * sizeof(double)),
                0);
    }
  }
}

TEST(ColorHistogramExactness, RenderedMeetingViewsMatchDoubleLoop) {
  const DiningScene scene = MakeMeetingScenario();
  for (double noise : {0.0, 6.0}) {
    RenderOptions opt;
    opt.noise_sigma = noise;
    Rng rng(17);
    for (double t : {0.0, 13.0, 31.0}) {
      for (int cam = 0; cam < scene.rig().NumCameras(); ++cam) {
        ExpectBitIdentical(
            RenderViewAt(scene, t, cam, opt, noise > 0 ? &rng : nullptr),
            "camera " + std::to_string(cam) + " t=" + std::to_string(t) +
                " noise=" + std::to_string(noise));
      }
    }
  }
}

TEST(ColorHistogramExactness, RandomOddSizedImagesMatchDoubleLoop) {
  Rng rng(63);
  for (auto [w, h] : {std::pair{1, 1}, {3, 7}, {17, 5}, {33, 31}, {127, 61}}) {
    ImageRgb img(w, h, 3);
    for (uint8_t& v : img.data()) v = static_cast<uint8_t>(rng.NextBelow(256));
    ExpectBitIdentical(img, std::to_string(w) + "x" + std::to_string(h));
  }
}

TEST(ColorHistogramExactness, SolidEdgeValuesAndEmptyImageMatchDoubleLoop) {
  // 0 and 255 sit outside the first and last bin centres, where the split
  // clamps; the empty image normalizes nothing.
  for (uint8_t v : {uint8_t{0}, uint8_t{255}}) {
    ImageRgb img(9, 4, 3);
    img.Fill(v);
    ExpectBitIdentical(img, "solid " + std::to_string(v));
  }
  const ImageRgb empty(0, 0, 3);
  ExpectBitIdentical(empty, "0x0");
  EXPECT_EQ(ComputeColorHistogram(empty, 8, true).NumBins(), 512);
}

/// Fills row y of `img` with pixels from `pick(x)`.
template <typename Pick>
void FillRow(ImageRgb* img, int y, Pick pick) {
  for (int x = 0; x < img->width(); ++x) PutRgb(img, x, y, pick(x));
}

Rgb RandomRgb(Rng* rng) {
  return Rgb{static_cast<uint8_t>(rng->NextBelow(256)),
             static_cast<uint8_t>(rng->NextBelow(256)),
             static_cast<uint8_t>(rng->NextBelow(256))};
}

TEST(ColorHistogramExactness, RunMergedRowsMatchDoubleLoop) {
  // One image per row shape the soft kernel's probe distinguishes; each
  // is checked alone and stacked with the others, so a row's path choice
  // cannot leak into the next row.
  Rng rng(64);
  const int w = 48;
  const Rgb a{90, 105, 125}, b{150, 105, 60}, c{17, 200, 3};
  std::vector<std::pair<std::string, std::function<Rgb(int)>>> rows = {
      {"flat", [&](int) { return a; }},
      {"noisy", [&](int) { return RandomRgb(&rng); }},
      {"flat then noisy",
       [&](int x) { return x < 20 ? a : RandomRgb(&rng); }},
      {"noisy then flat", [&](int x) { return x < 20 ? RandomRgb(&rng) : b; }},
      {"runs of 1 to 5", [&](int x) { return (x / (1 + x % 5)) % 2 ? a : c; }},
      {"run ends at the row end", [&](int x) { return x < w - 7 ? a : b; }},
      {"last pixel differs", [&](int x) { return x < w - 1 ? a : c; }},
      {"first pixel differs", [&](int x) { return x == 0 ? c : b; }},
      {"exactly 8 repeats in the probe",
       [&](int x) { return x < 9 ? a : (x % 2 ? b : c); }},
      {"7 repeats in the probe",
       [&](int x) { return x < 8 ? a : (x % 2 ? b : c); }},
      {"edge values", [&](int x) {
         return x % 16 < 8 ? Rgb{0, 0, 0} : Rgb{255, 255, 255};
       }},
  };
  ImageRgb stacked(w, static_cast<int>(rows.size()), 3);
  for (size_t i = 0; i < rows.size(); ++i) {
    ImageRgb one(w, 3, 3);
    for (int y = 0; y < 3; ++y) FillRow(&one, y, rows[i].second);
    ExpectBitIdentical(one, rows[i].first);
    FillRow(&stacked, static_cast<int>(i), rows[i].second);
  }
  ExpectBitIdentical(stacked, "stacked rows");
  // A run may not continue across a row boundary: rows that end and start
  // with the same pixel are two runs.
  ImageRgb wrap(w, 4, 3);
  wrap.Fill(77);
  ExpectBitIdentical(wrap, "one color across rows");
}

TEST(ColorHistogramExactness, NarrowAndDegenerateShapesMatchDoubleLoop) {
  // Widths below the 16-pixel probe (some rows cannot reach 8 repeats),
  // 1x1, 1xN and Nx1, flat and noisy.
  Rng rng(65);
  for (auto [w, h] : {std::pair{1, 1}, {1, 9}, {9, 1}, {2, 5}, {8, 3},
                      {9, 3}, {15, 4}, {16, 2}, {17, 2}, {40, 1}}) {
    const std::string size = std::to_string(w) + "x" + std::to_string(h);
    ImageRgb flat(w, h, 3);
    for (int y = 0; y < h; ++y) {
      const Rgb row_color = RandomRgb(&rng);
      FillRow(&flat, y, [&](int) { return row_color; });
    }
    ExpectBitIdentical(flat, "flat " + size);
    ImageRgb noisy(w, h, 3);
    for (uint8_t& v : noisy.data()) v = static_cast<uint8_t>(rng.NextBelow(256));
    ExpectBitIdentical(noisy, "noisy " + size);
  }
}

TEST(HistogramBinCount, PowersOfTwoUpTo256AreValid) {
  for (int bins = 1; bins <= 256; bins *= 2) EXPECT_TRUE(IsValidBinCount(bins));
  for (int bins : {-4, 0, 3, 5, 6, 7, 12, 255, 257, 512}) {
    EXPECT_FALSE(IsValidBinCount(bins)) << bins;
  }
}

TEST(HistogramBinCountDeathTest, NonPowerOfTwoAbortsInsteadOfOverrunning) {
  // 3 bins means div = 85, and 255 / 85 == 3 would index past the last bin.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ImageRgb rgb(2, 2, 3);
  rgb.Fill(255);
  EXPECT_DEATH(ComputeColorHistogram(rgb, 3), "bins_per_channel 3");
}

TEST(ColorHistogram, JointBinsSumToOne) {
  Rng rng(61);
  ImageRgb img(16, 16, 3);
  for (uint8_t& v : img.data()) v = static_cast<uint8_t>(rng.NextBelow(256));
  Histogram h = ComputeColorHistogram(img, 8);
  ASSERT_EQ(h.NumBins(), 512);
  double total = 0;
  for (double b : h.bins) total += b;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ColorHistogram, SolidColorHitsOneBin) {
  ImageRgb img(4, 4, 3);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) PutRgb(&img, x, y, Rgb{255, 0, 128});
  Histogram h = ComputeColorHistogram(img, 4);
  int nonzero = 0;
  for (double b : h.bins) {
    if (b > 0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 1);
}

TEST(ColorHistogram, SoftBinningStillNormalized) {
  Rng rng(62);
  ImageRgb img(16, 16, 3);
  for (uint8_t& v : img.data()) v = static_cast<uint8_t>(rng.NextBelow(256));
  Histogram h = ComputeColorHistogram(img, 8, /*soft_binning=*/true);
  double total = 0;
  for (double b : h.bins) total += b;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ColorHistogram, SoftBinningSmoothsRamp) {
  // A uniform background brightening by one intensity level per frame:
  // hard binning jumps an entire bin at the 32-level boundary while soft
  // binning moves mass gradually. Measure the worst consecutive-frame
  // chi-square distance across the ramp.
  auto solid = [](uint8_t v) {
    ImageRgb img(16, 16, 3);
    for (int y = 0; y < 16; ++y)
      for (int x = 0; x < 16; ++x) PutRgb(&img, x, y, Rgb{v, v, v});
    return img;
  };
  double worst_hard = 0, worst_soft = 0;
  for (uint8_t v = 24; v < 40; ++v) {
    Histogram ha = ComputeColorHistogram(solid(v), 8, false);
    Histogram hb = ComputeColorHistogram(solid(v + 1), 8, false);
    worst_hard = std::max(worst_hard, ChiSquareDistance(ha, hb));
    Histogram sa = ComputeColorHistogram(solid(v), 8, true);
    Histogram sb = ComputeColorHistogram(solid(v + 1), 8, true);
    worst_soft = std::max(worst_soft, ChiSquareDistance(sa, sb));
  }
  EXPECT_GT(worst_hard, 1.0);   // the full mass jumps bins at 31->32
  EXPECT_LT(worst_soft, 0.05);  // soft binning moves ~3% of mass per step
}

TEST(ColorHistogram, SoftBinningBoundaryValuesClamped) {
  // Extreme channel values (0, 255) must not index out of range.
  ImageRgb img(2, 1, 3);
  PutRgb(&img, 0, 0, Rgb{0, 0, 0});
  PutRgb(&img, 1, 0, Rgb{255, 255, 255});
  Histogram h = ComputeColorHistogram(img, 8, true);
  double total = 0;
  for (double b : h.bins) total += b;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Distances, IdenticalHistogramsScoreZeroAndOne) {
  ImageRgb img(8, 8, 3);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      PutRgb(&img, x, y, Rgb{static_cast<uint8_t>(x * 30), 100, 50});
  Histogram h = ComputeColorHistogram(img, 8);
  EXPECT_DOUBLE_EQ(ChiSquareDistance(h, h), 0.0);
  EXPECT_DOUBLE_EQ(L1Distance(h, h), 0.0);
  EXPECT_NEAR(IntersectionSimilarity(h, h), 1.0, 1e-9);
}

TEST(Distances, DisjointHistogramsAreMaximal) {
  Histogram a, b;
  a.bins = {1.0, 0.0};
  b.bins = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(L1Distance(a, b), 2.0);
  EXPECT_DOUBLE_EQ(IntersectionSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(ChiSquareDistance(a, b), 2.0);
}

TEST(Distances, SymmetricAndOrdered) {
  Histogram a, b, c;
  a.bins = {0.5, 0.5, 0.0};
  b.bins = {0.4, 0.5, 0.1};
  c.bins = {0.0, 0.2, 0.8};
  EXPECT_DOUBLE_EQ(ChiSquareDistance(a, b), ChiSquareDistance(b, a));
  EXPECT_DOUBLE_EQ(L1Distance(a, b), L1Distance(b, a));
  // b is closer to a than c is.
  EXPECT_LT(ChiSquareDistance(a, b), ChiSquareDistance(a, c));
  EXPECT_LT(L1Distance(a, b), L1Distance(a, c));
  EXPECT_GT(IntersectionSimilarity(a, b), IntersectionSimilarity(a, c));
}

TEST(Distances, SmallShiftSmallerThanSceneChange) {
  // The shot detector's working assumption: small lighting drift produces
  // far smaller distances than a background swap.
  ImageRgb base(32, 32, 3);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) PutRgb(&base, x, y, Rgb{100, 120, 90});
  ImageRgb drift = base;
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x)
      if ((x + y) % 7 == 0) PutRgb(&drift, x, y, Rgb{104, 124, 94});
  ImageRgb changed(32, 32, 3);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) PutRgb(&changed, x, y, Rgb{20, 200, 220});
  Histogram hb = ComputeColorHistogram(base, 8);
  Histogram hd = ComputeColorHistogram(drift, 8);
  Histogram hc = ComputeColorHistogram(changed, 8);
  EXPECT_LT(ChiSquareDistance(hb, hd) * 10, ChiSquareDistance(hb, hc));
}

}  // namespace
}  // namespace dievent
