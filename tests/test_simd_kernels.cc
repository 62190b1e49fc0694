// Scalar-vs-SIMD equivalence for every kernel in common/simd.h.
//
// The contract is bit-identical output (memcmp, not tolerance): integer
// kernels are exact by construction, and the float matvec pins a shared
// lane-partitioned summation order (see simd.h); the batched gradient
// and the Adam step fix theirs the same way. Each kernel is checked
// exhaustively over small sizes — every vector-width boundary, tail
// length, and border case — and with seeded randoms over large,
// unaligned, and odd-tailed inputs.

#include "common/simd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"

namespace dievent {
namespace {

/// Deterministic stream so failures reproduce.
struct XorShift {
  uint32_t s;
  explicit XorShift(uint32_t seed) : s(seed ? seed : 1) {}
  uint32_t Next() {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return s;
  }
  uint8_t NextByte() { return static_cast<uint8_t>(Next()); }
  float NextFloat() {  // in [-4, 4), varied exponents
    return static_cast<float>(static_cast<int>(Next() % 8192) - 4096) /
           1024.0f;
  }
};

TEST(SimdSelfCheck, Passes) { EXPECT_TRUE(simd::SelfCheck()); }

TEST(SimdMatVec, ExhaustiveSmallShapes) {
  XorShift rng(7);
  for (int in = 0; in <= 18; ++in) {
    for (int out_n = 0; out_n <= 9; ++out_n) {
      std::vector<float> w(static_cast<size_t>(in) * out_n), bias(out_n),
          x(in);
      for (auto& v : w) v = rng.NextFloat();
      for (auto& v : bias) v = rng.NextFloat();
      for (auto& v : x) v = rng.NextFloat();
      std::vector<float> ref(out_n, -99.0f), got(out_n, 99.0f);
      simd::MatVecScalar(w.data(), bias.data(), x.data(), in, out_n,
                         ref.data());
      simd::MatVec(w.data(), bias.data(), x.data(), in, out_n, got.data());
      // memcmp must not see the null data() of an empty vector.
      ASSERT_TRUE(out_n == 0 || std::memcmp(ref.data(), got.data(),
                                            out_n * sizeof(float)) == 0)
          << "in=" << in << " out=" << out_n;
    }
  }
}

TEST(SimdMatVec, LargeAndTailShapes) {
  XorShift rng(11);
  const int shapes[][2] = {{2124, 48}, {48, 7}, {127, 33}, {129, 5},
                           {1, 100},   {100, 1}, {65, 64}};
  for (const auto& shape : shapes) {
    const int in = shape[0], out_n = shape[1];
    std::vector<float> w(static_cast<size_t>(in) * out_n), bias(out_n),
        x(in);
    for (auto& v : w) v = rng.NextFloat();
    for (auto& v : bias) v = rng.NextFloat();
    for (auto& v : x) v = rng.NextFloat();
    std::vector<float> ref(out_n), got(out_n);
    simd::MatVecScalar(w.data(), bias.data(), x.data(), in, out_n,
                       ref.data());
    simd::MatVec(w.data(), bias.data(), x.data(), in, out_n, got.data());
    EXPECT_EQ(0,
              std::memcmp(ref.data(), got.data(), out_n * sizeof(float)))
        << "in=" << in << " out=" << out_n;
  }
}

TEST(SimdMatVec, UnalignedViews) {
  // Kernel inputs offset by 1..3 floats from a vector-aligned base: the
  // loads must all be unaligned-safe.
  XorShift rng(13);
  const int in = 67, out_n = 6;
  for (int off = 1; off <= 3; ++off) {
    std::vector<float> w(static_cast<size_t>(in) * out_n + off),
        bias(out_n + off), x(in + off);
    for (auto& v : w) v = rng.NextFloat();
    for (auto& v : bias) v = rng.NextFloat();
    for (auto& v : x) v = rng.NextFloat();
    std::vector<float> ref(out_n), got(out_n);
    simd::MatVecScalar(w.data() + off, bias.data() + off, x.data() + off,
                       in, out_n, ref.data());
    simd::MatVec(w.data() + off, bias.data() + off, x.data() + off, in,
                 out_n, got.data());
    EXPECT_EQ(0,
              std::memcmp(ref.data(), got.data(), out_n * sizeof(float)))
        << "offset=" << off;
  }
}

void CheckLbp(int w, int h, uint32_t seed) {
  XorShift rng(seed);
  std::vector<uint8_t> img(static_cast<size_t>(w) * h);
  for (auto& v : img) v = rng.NextByte();
  std::vector<uint8_t> ref(img.size()), got(img.size());
  simd::LbpCodesScalar(img.data(), w, h, ref.data());
  simd::LbpCodes(img.data(), w, h, got.data());
  ASSERT_EQ(0, std::memcmp(ref.data(), got.data(), img.size()))
      << "w=" << w << " h=" << h;
}

TEST(SimdLbp, ExhaustiveSmallSizes) {
  for (int w = 1; w <= 24; ++w) {
    for (int h = 1; h <= 6; ++h) CheckLbp(w, h, 17 + w * 31 + h);
  }
}

TEST(SimdLbp, LargeAndOddSizes) {
  CheckLbp(640, 480, 19);
  CheckLbp(641, 3, 23);   // one past a vector boundary, minimal height
  CheckLbp(48, 48, 29);   // the emotion crop size
  CheckLbp(18, 100, 31);  // narrowest width that takes the vector path
}

TEST(SimdLbp, ConstantAndExtremeImages) {
  for (uint8_t fill : {0, 128, 255}) {
    std::vector<uint8_t> img(static_cast<size_t>(37) * 5, fill);
    std::vector<uint8_t> ref(img.size()), got(img.size());
    simd::LbpCodesScalar(img.data(), 37, 5, ref.data());
    simd::LbpCodes(img.data(), 37, 5, got.data());
    EXPECT_EQ(0, std::memcmp(ref.data(), got.data(), img.size()))
        << "fill=" << static_cast<int>(fill);
  }
}

void CheckColorMasks(size_t n_px, int a_tol, int b_tol, uint32_t seed,
                     int spread = 64) {
  XorShift rng(seed);
  std::vector<uint8_t> rgb(n_px * 3);
  // Narrow value range so the gates actually fire both ways.
  for (auto& v : rgb) {
    v = static_cast<uint8_t>(rng.Next() % (2 * spread) + (128 - spread));
  }
  std::vector<uint8_t> ra(n_px, 9), rb(n_px, 9), ga(n_px, 7), gb(n_px, 7);
  simd::ColorMasks2Scalar(rgb.data(), n_px, 130, 120, 110, a_tol, 70, 60,
                          50, b_tol, ra.data(), rb.data());
  simd::ColorMasks2(rgb.data(), n_px, 130, 120, 110, a_tol, 70, 60, 50,
                    b_tol, ga.data(), gb.data());
  // memcmp must not see the null data() of an empty vector.
  ASSERT_TRUE(n_px == 0 || std::memcmp(ra.data(), ga.data(), n_px) == 0)
      << "n=" << n_px;
  ASSERT_TRUE(n_px == 0 || std::memcmp(rb.data(), gb.data(), n_px) == 0)
      << "n=" << n_px;
}

TEST(SimdColorMasks, ExhaustiveSmallCounts) {
  for (size_t n = 0; n <= 40; ++n) CheckColorMasks(n, 32, 26, 59 + n);
}

TEST(SimdColorMasks, LargeCountsAndTolerances) {
  CheckColorMasks(640 * 480, 32, 26, 61);
  CheckColorMasks(1000, 0, 255, 67);    // degenerate tolerances
  CheckColorMasks(1000, 300, -5, 71);   // clamped / negative tolerances
  CheckColorMasks(1017, 32, 26, 73);    // odd tail
}

void CheckOccupancy(size_t n, uint32_t seed, double density) {
  XorShift rng(seed);
  std::vector<uint8_t> mask(n, 0);
  const uint32_t threshold =
      static_cast<uint32_t>(density * 4294967295.0);
  for (auto& v : mask) v = rng.Next() < threshold ? 1 : 0;
  const size_t chunks = simd::OccupancyEntries(n);
  std::vector<uint8_t> ref(chunks, 9), got(chunks, 7);
  simd::OccupancyMapScalar(mask.data(), n, ref.data());
  simd::OccupancyMap(mask.data(), n, got.data());
  ASSERT_EQ(0, std::memcmp(ref.data(), got.data(), chunks)) << "n=" << n;
}

TEST(SimdOccupancy, ExhaustiveSmallSizes) {
  for (size_t n = 1; n <= 200; ++n) CheckOccupancy(n, 79 + n, 0.05);
}

TEST(SimdOccupancy, LargeAndDensitySweep) {
  for (double density : {0.0, 0.001, 0.5, 1.0}) {
    CheckOccupancy(640 * 480, 83, density);
    CheckOccupancy(640 * 480 + 37, 89, density);  // short last chunk
  }
}

TEST(SimdOccupancy, NonBooleanMaskValues) {
  // Any nonzero byte counts as occupied, not just 1.
  std::vector<uint8_t> mask(130, 0);
  mask[0] = 255;
  mask[129] = 7;
  const size_t chunks = simd::OccupancyEntries(mask.size());
  std::vector<uint8_t> ref(chunks), got(chunks);
  simd::OccupancyMapScalar(mask.data(), mask.size(), ref.data());
  simd::OccupancyMap(mask.data(), mask.size(), got.data());
  EXPECT_EQ(0, std::memcmp(ref.data(), got.data(), chunks));
  EXPECT_EQ(1, ref[0]);
  EXPECT_EQ(0, ref[1]);
  EXPECT_EQ(1, ref[2]);
}

// --- Batched gradient and Adam step ----------------------------------------

/// A float drawn from a mix that stresses the training kernels: ordinary
/// values, exact +0 and -0, and subnormals (whose products underflow).
float TrainingValue(XorShift* rng) {
  switch (rng->Next() % 8) {
    case 0:
      return 0.0f;
    case 1:
      return -0.0f;
    case 2:  // subnormal, either sign
      return static_cast<float>(static_cast<int>(rng->Next() % 200) - 100) *
             1e-40f;
    default:
      return rng->NextFloat();
  }
}

void CheckBatchGradient(int batch, int in, int out_n, uint32_t seed) {
  XorShift rng(seed);
  // Rows at odd offsets into one buffer, so no row is 16-byte aligned.
  std::vector<float> a(static_cast<size_t>(batch) * (in + 1) + 1);
  std::vector<float> d(static_cast<size_t>(batch) * out_n);
  for (auto& v : a) v = TrainingValue(&rng);
  for (auto& v : d) v = TrainingValue(&rng);
  // One sample with an all-zero delta row, one with all-zero inputs.
  if (batch > 2) {
    std::fill(d.begin() + out_n, d.begin() + 2 * out_n, 0.0f);
    std::fill(a.begin() + 1 + 2 * (in + 1), a.begin() + 1 + 2 * (in + 1) + in,
              0.0f);
  }
  std::vector<const float*> rows(batch);
  for (int b = 0; b < batch; ++b) {
    rows[b] = a.data() + 1 + static_cast<size_t>(b) * (in + 1);
  }
  const size_t n = static_cast<size_t>(in) * out_n;
  std::vector<float> ref(n, -99.0f), got(n, 99.0f);
  simd::BatchGradientScalar(rows.data(), d.data(), batch, in, out_n,
                            ref.data());
  simd::BatchGradient(rows.data(), d.data(), batch, in, out_n, got.data());
  ASSERT_EQ(0, std::memcmp(ref.data(), got.data(), n * sizeof(float)))
      << "batch=" << batch << " in=" << in << " out=" << out_n;

  // The per-sample loop the kernel replaces skipped zero deltas; adding
  // their ±0 products to a +0-started sum changes nothing, so both agree.
  std::vector<float> skip(n, 0.0f);
  for (int b = 0; b < batch; ++b) {
    for (int o = 0; o < out_n; ++o) {
      const float dv = d[static_cast<size_t>(b) * out_n + o];
      if (dv == 0.0f) continue;
      for (int i = 0; i < in; ++i) {
        skip[static_cast<size_t>(o) * in + i] += dv * rows[b][i];
      }
    }
  }
  ASSERT_EQ(0, std::memcmp(skip.data(), got.data(), n * sizeof(float)))
      << "batch=" << batch << " in=" << in << " out=" << out_n;
}

TEST(SimdBatchGradient, OddShapesAndBatchSizes) {
  // `in` off multiples of 8 (and of 4), `out` off multiples of 4.
  const int shapes[][2] = {{1, 1},  {3, 1},   {7, 3},   {9, 5},  {13, 6},
                           {19, 7}, {37, 13}, {44, 2},  {8, 4},  {53, 9},
                           {2124, 48}, {2123, 47}};
  uint32_t seed = 101;
  for (int batch : {1, 5, 16}) {
    for (const auto& shape : shapes) {
      CheckBatchGradient(batch, shape[0], shape[1], seed++);
    }
  }
}

TEST(SimdBatchGradient, ExhaustiveSmallShapes) {
  uint32_t seed = 7;
  for (int in = 1; in <= 18; ++in) {
    for (int out_n = 1; out_n <= 9; ++out_n) {
      CheckBatchGradient(3, in, out_n, seed++);
    }
  }
}

void CheckAdamStep(size_t n, uint32_t seed) {
  XorShift rng(seed);
  std::vector<float> grad(n), w(n), m(n), v(n);
  for (auto& x : w) x = TrainingValue(&rng);
  for (auto& x : m) x = TrainingValue(&rng) * 0.01f;
  for (auto& x : v) x = std::fabs(TrainingValue(&rng)) * 1e-3f;
  std::vector<float> w2 = w, m2 = m, v2 = v;
  simd::AdamStepParams p;
  p.l2 = 1e-4f;
  p.b1 = 0.9f;
  p.b2 = 0.999f;
  p.eps = 1e-8f;
  // Several steps, weights and biases alike, each on fresh gradients.
  for (int step = 1; step <= 4; ++step) {
    for (auto& x : grad) x = TrainingValue(&rng);
    p.grad_scale = 1.0f / static_cast<float>(step + 4);
    p.decay = step % 2 == 1;
    p.alpha = 2e-3f * static_cast<float>(step);
    simd::AdamStepScalar(p, grad.data(), n, w.data(), m.data(), v.data());
    simd::AdamStep(p, grad.data(), n, w2.data(), m2.data(), v2.data());
    // memcmp must not see the null data() of an empty vector.
    auto same = [n](const std::vector<float>& x, const std::vector<float>& y) {
      return n == 0 || std::memcmp(x.data(), y.data(), n * sizeof(float)) == 0;
    };
    ASSERT_TRUE(same(w, w2)) << "n=" << n << " step=" << step;
    ASSERT_TRUE(same(m, m2)) << "n=" << n << " step=" << step;
    ASSERT_TRUE(same(v, v2)) << "n=" << n << " step=" << step;
  }
}

TEST(SimdAdamStep, OddLengthsAndExtremeValues) {
  uint32_t seed = 211;
  for (size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 11, 48, 55, 102384, 102387}) {
    CheckAdamStep(n, seed++);
  }
}

}  // namespace
}  // namespace dievent
