/// \file simd.h
/// Portable SIMD kernels for the vision/ML hot paths.
///
/// Each kernel ships two implementations: a plain scalar reference
/// (`*Scalar`) and a vectorized variant (SSE2 on x86, NEON on ARM) behind
/// the unqualified name. The `DIEVENT_SIMD` CMake option (ON by default)
/// selects between them at compile time; with the option off, or on a
/// target with neither instruction set, the unqualified names alias the
/// scalar reference.
///
/// Equivalence contract: every vectorized kernel produces output
/// BIT-IDENTICAL to its scalar reference on the same input.
///  - Integer kernels (LBP codes, color masks with their occupancy maps)
///    are exact by construction.
///  - The float matvec fixes a lane-partitioned summation order (four
///    interleaved partial sums combined as (l0+l2)+(l1+l3)) that both
///    implementations share, so IEEE-754 determinism makes them agree to
///    the last bit. The batched gradient sums each element in sample
///    order, and the Adam step is elementwise with correctly rounded
///    sqrt and divide, so they agree the same way. This requires the
///    build to disable FP contraction
///    (-ffp-contract=off, set in the top-level CMakeLists); a fused
///    multiply-add in only one of the two paths would break the contract.
/// tests/test_simd_kernels.cc asserts the contract exhaustively over
/// small sizes and with seeded randoms over large/unaligned/tail sizes,
/// and SelfCheck() re-asserts a compact probe at runtime (benchmarks run
/// it before trusting a speedup measurement).

#ifndef DIEVENT_COMMON_SIMD_H_
#define DIEVENT_COMMON_SIMD_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

// DIEVENT_SIMD is normally injected by CMake (0 or 1); default to the
// vectorized build when compiled standalone.
#ifndef DIEVENT_SIMD
#define DIEVENT_SIMD 1
#endif

#if DIEVENT_SIMD && (defined(__SSE2__) || defined(_M_X64))
#define DIEVENT_SIMD_SSE2 1
#include <emmintrin.h>
#elif DIEVENT_SIMD && defined(__ARM_NEON)
#define DIEVENT_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace dievent {
namespace simd {

/// True when a vectorized backend is compiled in (the unqualified kernel
/// names differ from the scalar references).
#if defined(DIEVENT_SIMD_SSE2) || defined(DIEVENT_SIMD_NEON)
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// Name of the active backend: "sse2", "neon", or "scalar".
inline const char* ActiveBackend() {
#if defined(DIEVENT_SIMD_SSE2)
  return "sse2";
#elif defined(DIEVENT_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

// ---------------------------------------------------------------------------
// Dense matvec: y[o] = bias[o] + sum_i w[o*in + i] * x[i]
//
// Summation semantics (shared by both implementations): each row keeps
// four partial sums, element i accumulating into lane i mod 4; the lanes
// combine as (l0 + l2) + (l1 + l3), and the bias is added last. Rows are
// processed in blocks of four so one streaming read of x feeds four
// accumulators (quartering x's cache traffic); blocking never reorders
// any row's additions.
// ---------------------------------------------------------------------------

namespace internal {

/// Scalar lane-partitioned dot product for one row, continuing from lane
/// partial sums already in `lanes` and element index `i0` (i0 % 4 == 0).
inline float RowFinish(const float* w, const float* x, int i0, int in,
                       float lanes[4]) {
  // The & 3 keeps element i0+k in lane (i0+k) % 4 (i0 is a multiple of
  // four) and bounds the lanes index for any tail length, so GCC cannot
  // derive a trip count from the array extent and misdiagnose the loop
  // (-Waggressive-loop-optimizations fires on the i-indexed form).
  const int tail = in - i0;
  for (int k = 0; k < tail; ++k) lanes[k & 3] += w[i0 + k] * x[i0 + k];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

}  // namespace internal

inline void MatVecScalar(const float* w, const float* bias, const float* x,
                         int in, int out_n, float* y) {
  for (int o = 0; o < out_n; ++o) {
    const float* row = w + static_cast<size_t>(o) * in;
    float lanes[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    int i = 0;
    for (; i + 4 <= in; i += 4) {
      lanes[0] += row[i] * x[i];
      lanes[1] += row[i + 1] * x[i + 1];
      lanes[2] += row[i + 2] * x[i + 2];
      lanes[3] += row[i + 3] * x[i + 3];
    }
    y[o] = bias[o] + internal::RowFinish(row, x, i, in, lanes);
  }
}

#if defined(DIEVENT_SIMD_SSE2)

inline void MatVec(const float* w, const float* bias, const float* x,
                   int in, int out_n, float* y) {
  const int vec_end = in & ~3;
  int o = 0;
  // Eight rows per block: one streaming read of x feeds eight
  // accumulators (eight accumulators + xv fit the 16 xmm registers).
  // Each row still owns exactly one accumulator — a second one per row
  // would reorder that row's per-lane additions and break bit-identity.
  for (; o + 8 <= out_n; o += 8) {
    const float* r0 = w + static_cast<size_t>(o) * in;
    const float* r1 = r0 + in;
    const float* r2 = r1 + in;
    const float* r3 = r2 + in;
    const float* r4 = r3 + in;
    const float* r5 = r4 + in;
    const float* r6 = r5 + in;
    const float* r7 = r6 + in;
    __m128 a0 = _mm_setzero_ps(), a1 = _mm_setzero_ps();
    __m128 a2 = _mm_setzero_ps(), a3 = _mm_setzero_ps();
    __m128 a4 = _mm_setzero_ps(), a5 = _mm_setzero_ps();
    __m128 a6 = _mm_setzero_ps(), a7 = _mm_setzero_ps();
    for (int i = 0; i < vec_end; i += 4) {
      const __m128 xv = _mm_loadu_ps(x + i);
      a0 = _mm_add_ps(a0, _mm_mul_ps(_mm_loadu_ps(r0 + i), xv));
      a1 = _mm_add_ps(a1, _mm_mul_ps(_mm_loadu_ps(r1 + i), xv));
      a2 = _mm_add_ps(a2, _mm_mul_ps(_mm_loadu_ps(r2 + i), xv));
      a3 = _mm_add_ps(a3, _mm_mul_ps(_mm_loadu_ps(r3 + i), xv));
      a4 = _mm_add_ps(a4, _mm_mul_ps(_mm_loadu_ps(r4 + i), xv));
      a5 = _mm_add_ps(a5, _mm_mul_ps(_mm_loadu_ps(r5 + i), xv));
      a6 = _mm_add_ps(a6, _mm_mul_ps(_mm_loadu_ps(r6 + i), xv));
      a7 = _mm_add_ps(a7, _mm_mul_ps(_mm_loadu_ps(r7 + i), xv));
    }
    // The tail and the lane combine run scalar, exactly as the reference
    // does, so the result matches it bit for bit.
    alignas(16) float l[8][4];
    _mm_store_ps(l[0], a0);
    _mm_store_ps(l[1], a1);
    _mm_store_ps(l[2], a2);
    _mm_store_ps(l[3], a3);
    _mm_store_ps(l[4], a4);
    _mm_store_ps(l[5], a5);
    _mm_store_ps(l[6], a6);
    _mm_store_ps(l[7], a7);
    for (int k = 0; k < 8; ++k) {
      y[o + k] = bias[o + k] + internal::RowFinish(r0 + static_cast<size_t>(k) * in,
                                                   x, vec_end, in, l[k]);
    }
  }
  for (; o + 4 <= out_n; o += 4) {
    const float* r0 = w + static_cast<size_t>(o) * in;
    const float* r1 = r0 + in;
    const float* r2 = r1 + in;
    const float* r3 = r2 + in;
    __m128 a0 = _mm_setzero_ps(), a1 = _mm_setzero_ps();
    __m128 a2 = _mm_setzero_ps(), a3 = _mm_setzero_ps();
    for (int i = 0; i < vec_end; i += 4) {
      const __m128 xv = _mm_loadu_ps(x + i);
      a0 = _mm_add_ps(a0, _mm_mul_ps(_mm_loadu_ps(r0 + i), xv));
      a1 = _mm_add_ps(a1, _mm_mul_ps(_mm_loadu_ps(r1 + i), xv));
      a2 = _mm_add_ps(a2, _mm_mul_ps(_mm_loadu_ps(r2 + i), xv));
      a3 = _mm_add_ps(a3, _mm_mul_ps(_mm_loadu_ps(r3 + i), xv));
    }
    alignas(16) float l0[4], l1[4], l2[4], l3[4];
    _mm_store_ps(l0, a0);
    _mm_store_ps(l1, a1);
    _mm_store_ps(l2, a2);
    _mm_store_ps(l3, a3);
    y[o] = bias[o] + internal::RowFinish(r0, x, vec_end, in, l0);
    y[o + 1] = bias[o + 1] + internal::RowFinish(r1, x, vec_end, in, l1);
    y[o + 2] = bias[o + 2] + internal::RowFinish(r2, x, vec_end, in, l2);
    y[o + 3] = bias[o + 3] + internal::RowFinish(r3, x, vec_end, in, l3);
  }
  for (; o < out_n; ++o) {
    const float* row = w + static_cast<size_t>(o) * in;
    __m128 acc = _mm_setzero_ps();
    for (int i = 0; i < vec_end; i += 4) {
      acc = _mm_add_ps(acc,
                       _mm_mul_ps(_mm_loadu_ps(row + i), _mm_loadu_ps(x + i)));
    }
    alignas(16) float lanes[4];
    _mm_store_ps(lanes, acc);
    y[o] = bias[o] + internal::RowFinish(row, x, vec_end, in, lanes);
  }
}

#elif defined(DIEVENT_SIMD_NEON)

inline void MatVec(const float* w, const float* bias, const float* x,
                   int in, int out_n, float* y) {
  const int vec_end = in & ~3;
  int o = 0;
  for (; o + 4 <= out_n; o += 4) {
    const float* r0 = w + static_cast<size_t>(o) * in;
    const float* r1 = r0 + in;
    const float* r2 = r1 + in;
    const float* r3 = r2 + in;
    float32x4_t a0 = vdupq_n_f32(0.0f), a1 = vdupq_n_f32(0.0f);
    float32x4_t a2 = vdupq_n_f32(0.0f), a3 = vdupq_n_f32(0.0f);
    for (int i = 0; i < vec_end; i += 4) {
      const float32x4_t xv = vld1q_f32(x + i);
      // Explicit mul + add (not vmlaq/fma): contraction would break the
      // bit-identical contract with the scalar reference.
      a0 = vaddq_f32(a0, vmulq_f32(vld1q_f32(r0 + i), xv));
      a1 = vaddq_f32(a1, vmulq_f32(vld1q_f32(r1 + i), xv));
      a2 = vaddq_f32(a2, vmulq_f32(vld1q_f32(r2 + i), xv));
      a3 = vaddq_f32(a3, vmulq_f32(vld1q_f32(r3 + i), xv));
    }
    float l0[4], l1[4], l2[4], l3[4];
    vst1q_f32(l0, a0);
    vst1q_f32(l1, a1);
    vst1q_f32(l2, a2);
    vst1q_f32(l3, a3);
    y[o] = bias[o] + internal::RowFinish(r0, x, vec_end, in, l0);
    y[o + 1] = bias[o + 1] + internal::RowFinish(r1, x, vec_end, in, l1);
    y[o + 2] = bias[o + 2] + internal::RowFinish(r2, x, vec_end, in, l2);
    y[o + 3] = bias[o + 3] + internal::RowFinish(r3, x, vec_end, in, l3);
  }
  for (; o < out_n; ++o) {
    const float* row = w + static_cast<size_t>(o) * in;
    float32x4_t acc = vdupq_n_f32(0.0f);
    for (int i = 0; i < vec_end; i += 4) {
      acc = vaddq_f32(acc, vmulq_f32(vld1q_f32(row + i), vld1q_f32(x + i)));
    }
    float lanes[4];
    vst1q_f32(lanes, acc);
    y[o] = bias[o] + internal::RowFinish(row, x, vec_end, in, lanes);
  }
}

#else

inline void MatVec(const float* w, const float* bias, const float* x, int in,
                   int out_n, float* y) {
  MatVecScalar(w, bias, x, in, out_n, y);
}

#endif

// ---------------------------------------------------------------------------
// Batched weight gradient: g[o*in + i] = sum_b d[b*out_n + o] * a[b][i]
//
// The backward pass of one dense layer over a minibatch: `a` holds the
// batch's layer inputs (one row pointer per sample, `in` floats each),
// `d` its output deltas (batch x out_n, row-major), and `g` receives the
// out_n x in weight gradient, overwritten.
//
// Summation semantics (shared by both implementations): every element
// starts at +0 and adds its products in ascending sample order — the
// order of a per-sample accumulate loop. Blocking over o and i only
// chooses which elements are in flight together; it reorders no element's
// additions. A zero delta or activation needs no skip: its product is ±0,
// and adding ±0 leaves any accumulator that started at +0 unchanged
// (DESIGN §13).
// ---------------------------------------------------------------------------

inline void BatchGradientScalar(const float* const* a, const float* d,
                                int batch, int in, int out_n, float* g) {
  for (int o = 0; o < out_n; ++o) {
    float* row = g + static_cast<size_t>(o) * in;
    for (int i = 0; i < in; ++i) row[i] = 0.0f;
    for (int b = 0; b < batch; ++b) {
      const float dv = d[static_cast<size_t>(b) * out_n + o];
      const float* x = a[b];
      for (int i = 0; i < in; ++i) row[i] += dv * x[i];
    }
  }
}

#if defined(DIEVENT_SIMD_SSE2)

inline void BatchGradient(const float* const* a, const float* d, int batch,
                          int in, int out_n, float* g) {
  const int vec8_end = in & ~7;
  const int vec4_end = in & ~3;
  int o = 0;
  // Four rows x eight columns per block: eight accumulators, two loads of
  // the sample's inputs and four delta broadcasts per sample.
  for (; o + 4 <= out_n; o += 4) {
    float* g0 = g + static_cast<size_t>(o) * in;
    float* g1 = g0 + in;
    float* g2 = g1 + in;
    float* g3 = g2 + in;
    int i = 0;
    for (; i < vec8_end; i += 8) {
      __m128 c00 = _mm_setzero_ps(), c01 = _mm_setzero_ps();
      __m128 c10 = _mm_setzero_ps(), c11 = _mm_setzero_ps();
      __m128 c20 = _mm_setzero_ps(), c21 = _mm_setzero_ps();
      __m128 c30 = _mm_setzero_ps(), c31 = _mm_setzero_ps();
      for (int b = 0; b < batch; ++b) {
        const float* x = a[b] + i;
        const float* db = d + static_cast<size_t>(b) * out_n + o;
        const __m128 x0 = _mm_loadu_ps(x);
        const __m128 x1 = _mm_loadu_ps(x + 4);
        const __m128 d0 = _mm_set1_ps(db[0]);
        const __m128 d1 = _mm_set1_ps(db[1]);
        const __m128 d2 = _mm_set1_ps(db[2]);
        const __m128 d3 = _mm_set1_ps(db[3]);
        c00 = _mm_add_ps(c00, _mm_mul_ps(d0, x0));
        c01 = _mm_add_ps(c01, _mm_mul_ps(d0, x1));
        c10 = _mm_add_ps(c10, _mm_mul_ps(d1, x0));
        c11 = _mm_add_ps(c11, _mm_mul_ps(d1, x1));
        c20 = _mm_add_ps(c20, _mm_mul_ps(d2, x0));
        c21 = _mm_add_ps(c21, _mm_mul_ps(d2, x1));
        c30 = _mm_add_ps(c30, _mm_mul_ps(d3, x0));
        c31 = _mm_add_ps(c31, _mm_mul_ps(d3, x1));
      }
      _mm_storeu_ps(g0 + i, c00);
      _mm_storeu_ps(g0 + i + 4, c01);
      _mm_storeu_ps(g1 + i, c10);
      _mm_storeu_ps(g1 + i + 4, c11);
      _mm_storeu_ps(g2 + i, c20);
      _mm_storeu_ps(g2 + i + 4, c21);
      _mm_storeu_ps(g3 + i, c30);
      _mm_storeu_ps(g3 + i + 4, c31);
    }
    for (; i < vec4_end; i += 4) {
      __m128 c0 = _mm_setzero_ps(), c1 = _mm_setzero_ps();
      __m128 c2 = _mm_setzero_ps(), c3 = _mm_setzero_ps();
      for (int b = 0; b < batch; ++b) {
        const __m128 x0 = _mm_loadu_ps(a[b] + i);
        const float* db = d + static_cast<size_t>(b) * out_n + o;
        c0 = _mm_add_ps(c0, _mm_mul_ps(_mm_set1_ps(db[0]), x0));
        c1 = _mm_add_ps(c1, _mm_mul_ps(_mm_set1_ps(db[1]), x0));
        c2 = _mm_add_ps(c2, _mm_mul_ps(_mm_set1_ps(db[2]), x0));
        c3 = _mm_add_ps(c3, _mm_mul_ps(_mm_set1_ps(db[3]), x0));
      }
      _mm_storeu_ps(g0 + i, c0);
      _mm_storeu_ps(g1 + i, c1);
      _mm_storeu_ps(g2 + i, c2);
      _mm_storeu_ps(g3 + i, c3);
    }
    for (; i < in; ++i) {
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (int b = 0; b < batch; ++b) {
        const float x = a[b][i];
        const float* db = d + static_cast<size_t>(b) * out_n + o;
        s0 += db[0] * x;
        s1 += db[1] * x;
        s2 += db[2] * x;
        s3 += db[3] * x;
      }
      g0[i] = s0;
      g1[i] = s1;
      g2[i] = s2;
      g3[i] = s3;
    }
  }
  for (; o < out_n; ++o) {
    float* row = g + static_cast<size_t>(o) * in;
    int i = 0;
    for (; i < vec4_end; i += 4) {
      __m128 c = _mm_setzero_ps();
      for (int b = 0; b < batch; ++b) {
        const __m128 dv = _mm_set1_ps(d[static_cast<size_t>(b) * out_n + o]);
        c = _mm_add_ps(c, _mm_mul_ps(dv, _mm_loadu_ps(a[b] + i)));
      }
      _mm_storeu_ps(row + i, c);
    }
    for (; i < in; ++i) {
      float s = 0.0f;
      for (int b = 0; b < batch; ++b) {
        s += d[static_cast<size_t>(b) * out_n + o] * a[b][i];
      }
      row[i] = s;
    }
  }
}

#elif defined(DIEVENT_SIMD_NEON)

inline void BatchGradient(const float* const* a, const float* d, int batch,
                          int in, int out_n, float* g) {
  const int vec4_end = in & ~3;
  int o = 0;
  for (; o + 4 <= out_n; o += 4) {
    float* g0 = g + static_cast<size_t>(o) * in;
    float* g1 = g0 + in;
    float* g2 = g1 + in;
    float* g3 = g2 + in;
    int i = 0;
    for (; i < vec4_end; i += 4) {
      float32x4_t c0 = vdupq_n_f32(0.0f), c1 = vdupq_n_f32(0.0f);
      float32x4_t c2 = vdupq_n_f32(0.0f), c3 = vdupq_n_f32(0.0f);
      for (int b = 0; b < batch; ++b) {
        const float32x4_t x0 = vld1q_f32(a[b] + i);
        const float* db = d + static_cast<size_t>(b) * out_n + o;
        // Explicit mul + add (not vmlaq/fma), as in MatVec.
        c0 = vaddq_f32(c0, vmulq_f32(vdupq_n_f32(db[0]), x0));
        c1 = vaddq_f32(c1, vmulq_f32(vdupq_n_f32(db[1]), x0));
        c2 = vaddq_f32(c2, vmulq_f32(vdupq_n_f32(db[2]), x0));
        c3 = vaddq_f32(c3, vmulq_f32(vdupq_n_f32(db[3]), x0));
      }
      vst1q_f32(g0 + i, c0);
      vst1q_f32(g1 + i, c1);
      vst1q_f32(g2 + i, c2);
      vst1q_f32(g3 + i, c3);
    }
    for (; i < in; ++i) {
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (int b = 0; b < batch; ++b) {
        const float x = a[b][i];
        const float* db = d + static_cast<size_t>(b) * out_n + o;
        s0 += db[0] * x;
        s1 += db[1] * x;
        s2 += db[2] * x;
        s3 += db[3] * x;
      }
      g0[i] = s0;
      g1[i] = s1;
      g2[i] = s2;
      g3[i] = s3;
    }
  }
  for (; o < out_n; ++o) {
    float* row = g + static_cast<size_t>(o) * in;
    int i = 0;
    for (; i < vec4_end; i += 4) {
      float32x4_t c = vdupq_n_f32(0.0f);
      for (int b = 0; b < batch; ++b) {
        const float32x4_t dv =
            vdupq_n_f32(d[static_cast<size_t>(b) * out_n + o]);
        c = vaddq_f32(c, vmulq_f32(dv, vld1q_f32(a[b] + i)));
      }
      vst1q_f32(row + i, c);
    }
    for (; i < in; ++i) {
      float s = 0.0f;
      for (int b = 0; b < batch; ++b) {
        s += d[static_cast<size_t>(b) * out_n + o] * a[b][i];
      }
      row[i] = s;
    }
  }
}

#else

inline void BatchGradient(const float* const* a, const float* d, int batch,
                          int in, int out_n, float* g) {
  BatchGradientScalar(a, d, batch, in, out_n, g);
}

#endif

// ---------------------------------------------------------------------------
// Adam step (Kingma & Ba, arXiv:1412.6980) over n parameters, elementwise:
//   g = grad * grad_scale (+ l2 * w when `decay`)
//   m = b1 * m + (1 - b1) * g
//   v = b2 * v + ((1 - b2) * g) * g
//   w = w - (alpha * m) / (sqrt(v) + eps)
// `alpha` carries the per-step bias correction, computed by the caller.
//
// Both implementations evaluate exactly these operations in this order.
// SSE2 sqrtps/divps (and AArch64 vsqrtq/vdivq) round correctly, like the
// scalar std::sqrt and /, so with contraction off the results agree bit
// for bit. 32-bit ARM NEON has no exact vector sqrt or divide and uses the
// scalar reference.
// ---------------------------------------------------------------------------

struct AdamStepParams {
  float grad_scale = 1.0f;  ///< multiplies the raw gradient (1 / batch)
  bool decay = false;       ///< add l2 * w to the gradient (weights only)
  float l2 = 0.0f;
  float b1 = 0.0f;     ///< first-moment decay
  float b2 = 0.0f;     ///< second-moment decay
  float alpha = 0.0f;  ///< bias-corrected learning rate
  float eps = 0.0f;
};

inline void AdamStepScalar(const AdamStepParams& p, const float* grad,
                           size_t n, float* w, float* m, float* v) {
  const float c1 = 1.0f - p.b1;
  const float c2 = 1.0f - p.b2;
  for (size_t i = 0; i < n; ++i) {
    float gi = grad[i] * p.grad_scale;
    if (p.decay) gi = gi + p.l2 * w[i];
    m[i] = p.b1 * m[i] + c1 * gi;
    v[i] = p.b2 * v[i] + c2 * gi * gi;
    w[i] -= p.alpha * m[i] / (std::sqrt(v[i]) + p.eps);
  }
}

#if defined(DIEVENT_SIMD_SSE2) || \
    (defined(DIEVENT_SIMD_NEON) && defined(__aarch64__))

inline void AdamStep(const AdamStepParams& p, const float* grad, size_t n,
                     float* w, float* m, float* v) {
  const size_t vec_end = n & ~static_cast<size_t>(3);
#if defined(DIEVENT_SIMD_SSE2)
  const __m128 scale = _mm_set1_ps(p.grad_scale), l2 = _mm_set1_ps(p.l2);
  const __m128 b1 = _mm_set1_ps(p.b1), c1 = _mm_set1_ps(1.0f - p.b1);
  const __m128 b2 = _mm_set1_ps(p.b2), c2 = _mm_set1_ps(1.0f - p.b2);
  const __m128 alpha = _mm_set1_ps(p.alpha), eps = _mm_set1_ps(p.eps);
  for (size_t i = 0; i < vec_end; i += 4) {
    const __m128 wi = _mm_loadu_ps(w + i);
    __m128 gi = _mm_mul_ps(_mm_loadu_ps(grad + i), scale);
    if (p.decay) gi = _mm_add_ps(gi, _mm_mul_ps(l2, wi));
    const __m128 mi =
        _mm_add_ps(_mm_mul_ps(b1, _mm_loadu_ps(m + i)), _mm_mul_ps(c1, gi));
    const __m128 vi = _mm_add_ps(_mm_mul_ps(b2, _mm_loadu_ps(v + i)),
                                 _mm_mul_ps(_mm_mul_ps(c2, gi), gi));
    _mm_storeu_ps(m + i, mi);
    _mm_storeu_ps(v + i, vi);
    _mm_storeu_ps(w + i,
                  _mm_sub_ps(wi, _mm_div_ps(_mm_mul_ps(alpha, mi),
                                            _mm_add_ps(_mm_sqrt_ps(vi), eps))));
  }
#else
  const float32x4_t scale = vdupq_n_f32(p.grad_scale), l2 = vdupq_n_f32(p.l2);
  const float32x4_t b1 = vdupq_n_f32(p.b1), c1 = vdupq_n_f32(1.0f - p.b1);
  const float32x4_t b2 = vdupq_n_f32(p.b2), c2 = vdupq_n_f32(1.0f - p.b2);
  const float32x4_t alpha = vdupq_n_f32(p.alpha), eps = vdupq_n_f32(p.eps);
  for (size_t i = 0; i < vec_end; i += 4) {
    const float32x4_t wi = vld1q_f32(w + i);
    float32x4_t gi = vmulq_f32(vld1q_f32(grad + i), scale);
    if (p.decay) gi = vaddq_f32(gi, vmulq_f32(l2, wi));
    const float32x4_t mi =
        vaddq_f32(vmulq_f32(b1, vld1q_f32(m + i)), vmulq_f32(c1, gi));
    const float32x4_t vi = vaddq_f32(vmulq_f32(b2, vld1q_f32(v + i)),
                                     vmulq_f32(vmulq_f32(c2, gi), gi));
    vst1q_f32(m + i, mi);
    vst1q_f32(v + i, vi);
    vst1q_f32(w + i, vsubq_f32(wi, vdivq_f32(vmulq_f32(alpha, mi),
                                             vaddq_f32(vsqrtq_f32(vi), eps))));
  }
#endif
  AdamStepScalar(p, grad + vec_end, n - vec_end, w + vec_end, m + vec_end,
                 v + vec_end);
}

#else

inline void AdamStep(const AdamStepParams& p, const float* grad, size_t n,
                     float* w, float* m, float* v) {
  AdamStepScalar(p, grad, n, w, m, v);
}

#endif

// ---------------------------------------------------------------------------
// LBP(8,1) code image: codes[y*w+x] gets bit b set when the b-th ring
// neighbour (clockwise from top-left, reads clamped to the border) is >=
// the center pixel. Byte-exact by construction.
// ---------------------------------------------------------------------------

namespace internal {

/// Ring neighbour offsets, clockwise from top-left.
inline constexpr int kLbpDx[8] = {-1, 0, 1, 1, 1, 0, -1, -1};
inline constexpr int kLbpDy[8] = {-1, -1, -1, 0, 1, 1, 1, 0};

inline uint8_t LbpCodeAt(const uint8_t* gray, int w, int h, int x, int y) {
  const uint8_t center = gray[static_cast<size_t>(y) * w + x];
  uint8_t code = 0;
  for (int b = 0; b < 8; ++b) {
    int nx = x + kLbpDx[b];
    int ny = y + kLbpDy[b];
    nx = nx < 0 ? 0 : (nx >= w ? w - 1 : nx);
    ny = ny < 0 ? 0 : (ny >= h ? h - 1 : ny);
    if (gray[static_cast<size_t>(ny) * w + nx] >= center) {
      code |= static_cast<uint8_t>(1u << b);
    }
  }
  return code;
}

}  // namespace internal

inline void LbpCodesScalar(const uint8_t* gray, int w, int h,
                           uint8_t* codes) {
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      codes[static_cast<size_t>(y) * w + x] =
          internal::LbpCodeAt(gray, w, h, x, y);
    }
  }
}

#if defined(DIEVENT_SIMD_SSE2)

inline void LbpCodes(const uint8_t* gray, int w, int h, uint8_t* codes) {
  if (w < 18 || h < 3) {
    LbpCodesScalar(gray, w, h, codes);
    return;
  }
  for (int y = 0; y < h; ++y) {
    const uint8_t* rm = gray + static_cast<size_t>(y == 0 ? 0 : y - 1) * w;
    const uint8_t* rc = gray + static_cast<size_t>(y) * w;
    const uint8_t* rp =
        gray + static_cast<size_t>(y == h - 1 ? h - 1 : y + 1) * w;
    uint8_t* out = codes + static_cast<size_t>(y) * w;
    out[0] = internal::LbpCodeAt(gray, w, h, 0, y);
    int x = 1;
    // Ring rows for the interior: the b-th neighbour of pixels
    // [x, x+15] is the contiguous span row[x+dx .. x+dx+15].
    const uint8_t* rows[8] = {rm, rm, rm, rc, rp, rp, rp, rc};
    for (; x + 16 <= w - 1; x += 16) {
      const __m128i center =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(rc + x));
      __m128i code = _mm_setzero_si128();
      for (int b = 0; b < 8; ++b) {
        const __m128i n = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
            rows[b] + x + internal::kLbpDx[b]));
        // n >= center (unsigned bytes): max(n, center) == n.
        const __m128i ge =
            _mm_cmpeq_epi8(_mm_max_epu8(n, center), n);
        code = _mm_or_si128(
            code, _mm_and_si128(ge, _mm_set1_epi8(
                                        static_cast<char>(1u << b))));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + x), code);
    }
    for (; x < w; ++x) out[x] = internal::LbpCodeAt(gray, w, h, x, y);
  }
}

#elif defined(DIEVENT_SIMD_NEON)

inline void LbpCodes(const uint8_t* gray, int w, int h, uint8_t* codes) {
  if (w < 18 || h < 3) {
    LbpCodesScalar(gray, w, h, codes);
    return;
  }
  for (int y = 0; y < h; ++y) {
    const uint8_t* rm = gray + static_cast<size_t>(y == 0 ? 0 : y - 1) * w;
    const uint8_t* rc = gray + static_cast<size_t>(y) * w;
    const uint8_t* rp =
        gray + static_cast<size_t>(y == h - 1 ? h - 1 : y + 1) * w;
    uint8_t* out = codes + static_cast<size_t>(y) * w;
    out[0] = internal::LbpCodeAt(gray, w, h, 0, y);
    int x = 1;
    const uint8_t* rows[8] = {rm, rm, rm, rc, rp, rp, rp, rc};
    for (; x + 16 <= w - 1; x += 16) {
      const uint8x16_t center = vld1q_u8(rc + x);
      uint8x16_t code = vdupq_n_u8(0);
      for (int b = 0; b < 8; ++b) {
        const uint8x16_t n = vld1q_u8(rows[b] + x + internal::kLbpDx[b]);
        const uint8x16_t ge = vcgeq_u8(n, center);
        code = vorrq_u8(
            code, vandq_u8(ge, vdupq_n_u8(static_cast<uint8_t>(1u << b))));
      }
      vst1q_u8(out + x, code);
    }
    for (; x < w; ++x) out[x] = internal::LbpCodeAt(gray, w, h, x, y);
  }
}

#else

inline void LbpCodes(const uint8_t* gray, int w, int h, uint8_t* codes) {
  LbpCodesScalar(gray, w, h, codes);
}

#endif

// ---------------------------------------------------------------------------
// Detector color gates: one pass over an interleaved RGB buffer producing
// two binary masks (1 where every channel is within tolerance of the
// reference color, 0 otherwise) and each mask's occupancy map: occ[c] = 1
// when any of mask[64c .. 64c+63] is nonzero (the last chunk may be
// short). The detector's component-seed scan walks occupied chunks only,
// so an almost-empty mask costs no full-frame pixel walk. Byte-exact by
// construction.
// ---------------------------------------------------------------------------

/// Chunk width (mask bytes per occupancy entry).
inline constexpr int kOccChunk = 64;

/// Number of occupancy entries covering an n-byte mask.
inline size_t OccupancyEntries(size_t n) {
  return (n + kOccChunk - 1) / kOccChunk;
}

namespace internal {

/// The two masks alone, pixel by pixel.
inline void ColorGatesScalar(const uint8_t* rgb, size_t n_px, uint8_t ar,
                             uint8_t ag, uint8_t ab, int a_tol, uint8_t br,
                             uint8_t bg, uint8_t bb, int b_tol,
                             uint8_t* mask_a, uint8_t* mask_b) {
  auto absdiff = [](int p, int q) { return p > q ? p - q : q - p; };
  const uint8_t* px = rgb;
  for (size_t i = 0; i < n_px; ++i, px += 3) {
    const int r = px[0], g = px[1], b = px[2];
    mask_a[i] = absdiff(r, ar) <= a_tol && absdiff(g, ag) <= a_tol &&
                        absdiff(b, ab) <= a_tol
                    ? 1
                    : 0;
    mask_b[i] = absdiff(r, br) <= b_tol && absdiff(g, bg) <= b_tol &&
                        absdiff(b, bb) <= b_tol
                    ? 1
                    : 0;
  }
}

/// 1 when any of bytes[0 .. n) is nonzero.
inline uint8_t AnyNonzero(const uint8_t* bytes, size_t n) {
  uint8_t any = 0;
  for (size_t i = 0; i < n; ++i) any |= bytes[i];
  return any ? 1 : 0;
}

}  // namespace internal

inline void ColorMasks2Scalar(const uint8_t* rgb, size_t n_px, uint8_t ar,
                              uint8_t ag, uint8_t ab, int a_tol, uint8_t br,
                              uint8_t bg, uint8_t bb, int b_tol,
                              uint8_t* mask_a, uint8_t* mask_b,
                              uint8_t* occ_a, uint8_t* occ_b) {
  internal::ColorGatesScalar(rgb, n_px, ar, ag, ab, a_tol, br, bg, bb, b_tol,
                             mask_a, mask_b);
  for (size_t c = 0; c < OccupancyEntries(n_px); ++c) {
    const size_t begin = c * kOccChunk;
    const size_t len = n_px - begin < size_t{kOccChunk} ? n_px - begin
                                                        : size_t{kOccChunk};
    occ_a[c] = internal::AnyNonzero(mask_a + begin, len);
    occ_b[c] = internal::AnyNonzero(mask_b + begin, len);
  }
}

#if defined(DIEVENT_SIMD_SSE2) || defined(DIEVENT_SIMD_NEON)

namespace internal {

/// Fills pattern[0..47] with the 3-byte color repeated (period 48 = lcm
/// of the 3-byte pixel and the 16-byte vector).
inline void FillRgbPattern(uint8_t r, uint8_t g, uint8_t b,
                           uint8_t pattern[48]) {
  for (int i = 0; i < 16; ++i) {
    pattern[3 * i] = r;
    pattern[3 * i + 1] = g;
    pattern[3 * i + 2] = b;
  }
}

#if defined(DIEVENT_SIMD_SSE2)
/// Maps 12 verdict-word bits (four pixels, one verdict at every third
/// bit) to four little-endian 0/1 mask bytes. 16 KiB, rodata.
inline constexpr std::array<uint32_t, 4096> kEvery3rdBitToBytes = [] {
  std::array<uint32_t, 4096> t{};
  for (uint32_t v = 0; v < 4096; ++v) {
    t[v] = (v & 1u) | (((v >> 3) & 1u) << 8) | (((v >> 6) & 1u) << 16) |
           (((v >> 9) & 1u) << 24);
  }
  return t;
}();
/// Bit 3p of a 48-bit verdict word for each of its 16 pixels p.
inline constexpr uint64_t kPixelVerdictBits = 0x249249249249ull;
#endif

}  // namespace internal

inline void ColorMasks2(const uint8_t* rgb, size_t n_px, uint8_t ar,
                        uint8_t ag, uint8_t ab, int a_tol, uint8_t br,
                        uint8_t bg, uint8_t bb, int b_tol, uint8_t* mask_a,
                        uint8_t* mask_b, uint8_t* occ_a, uint8_t* occ_b) {
  alignas(16) uint8_t pat_a[48], pat_b[48];
  internal::FillRgbPattern(ar, ag, ab, pat_a);
  internal::FillRgbPattern(br, bg, bb, pat_b);
  // The gates clamp tolerances into u8 range; tolerances are small
  // positive constants in practice, and a negative tolerance matches
  // nothing (handled by the scalar path below).
  if (a_tol < 0 || b_tol < 0) {
    ColorMasks2Scalar(rgb, n_px, ar, ag, ab, a_tol, br, bg, bb, b_tol,
                      mask_a, mask_b, occ_a, occ_b);
    return;
  }
  const uint8_t ta = a_tol > 255 ? 255 : static_cast<uint8_t>(a_tol);
  const uint8_t tb = b_tol > 255 ? 255 : static_cast<uint8_t>(b_tol);
  // `gate16(i, &any_a, &any_b)` writes mask bytes i .. i+15 and ORs a
  // nonzero value into any_a / any_b when a pixel passes that gate.
#if defined(DIEVENT_SIMD_SSE2)
  const __m128i tol_a = _mm_set1_epi8(static_cast<char>(ta));
  const __m128i tol_b = _mm_set1_epi8(static_cast<char>(tb));
  __m128i ref_a[3], ref_b[3];
  for (int v = 0; v < 3; ++v) {
    ref_a[v] = _mm_load_si128(reinterpret_cast<const __m128i*>(pat_a) + v);
    ref_b[v] = _mm_load_si128(reinterpret_cast<const __m128i*>(pat_b) + v);
  }
  auto gate16 = [&](size_t i, uint64_t* any_a, uint64_t* any_b) {
    const uint8_t* base = rgb + 3 * i;
    // Compress each 16-byte verdict vector straight to 16 bits; the three
    // pieces form a 48-bit word whose bit k mirrors channel-verdict byte
    // k. The pixel combine and the spread back to bytes then run in the
    // scalar domain — cheaper than shuffling bytes across vector
    // boundaries on SSE2, and free of store-forwarding stalls.
    uint64_t wa = 0, wb = 0;
    for (int v = 0; v < 3; ++v) {
      const __m128i d =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(base) + v);
      // |d - ref| via saturating subtractions, then <= tol as
      // min(diff, tol) == diff.
      const __m128i da = _mm_or_si128(_mm_subs_epu8(d, ref_a[v]),
                                      _mm_subs_epu8(ref_a[v], d));
      const __m128i db = _mm_or_si128(_mm_subs_epu8(d, ref_b[v]),
                                      _mm_subs_epu8(ref_b[v], d));
      const __m128i oka = _mm_cmpeq_epi8(_mm_min_epu8(da, tol_a), da);
      const __m128i okb = _mm_cmpeq_epi8(_mm_min_epu8(db, tol_b), db);
      wa |= static_cast<uint64_t>(
                static_cast<uint32_t>(_mm_movemask_epi8(oka)))
            << (16 * v);
      wb |= static_cast<uint64_t>(
                static_cast<uint32_t>(_mm_movemask_epi8(okb)))
            << (16 * v);
    }
    // Pixel p passes when bits 3p, 3p+1, 3p+2 are all set — bit 3p of
    // w & (w >> 1) & (w >> 2); the other bits are masked off, so a word
    // is zero exactly when no pixel of the group passes.
    const uint64_t va =
        wa & (wa >> 1) & (wa >> 2) & internal::kPixelVerdictBits;
    const uint64_t vb =
        wb & (wb >> 1) & (wb >> 2) & internal::kPixelVerdictBits;
    *any_a |= va;
    *any_b |= vb;
    if ((va | vb) == 0) {
      // The common case away from heads: no table look-ups at all.
      const __m128i zero = _mm_setzero_si128();
      _mm_storeu_si128(reinterpret_cast<__m128i*>(mask_a + i), zero);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(mask_b + i), zero);
      return;
    }
    // The table spreads each group of four pixel bits (12 word bits =
    // 4 pixels) to four 0/1 output bytes.
    for (int g = 0; g < 4; ++g) {
      const uint32_t ea =
          internal::kEvery3rdBitToBytes[(va >> (12 * g)) & 0xFFF];
      const uint32_t eb =
          internal::kEvery3rdBitToBytes[(vb >> (12 * g)) & 0xFFF];
      std::memcpy(mask_a + i + 4 * g, &ea, 4);
      std::memcpy(mask_b + i + 4 * g, &eb, 4);
    }
  };
#else   // DIEVENT_SIMD_NEON
  const uint8x16_t tol_a = vdupq_n_u8(ta);
  const uint8x16_t tol_b = vdupq_n_u8(tb);
  uint8x16_t ref_a[3], ref_b[3];
  for (int v = 0; v < 3; ++v) {
    ref_a[v] = vld1q_u8(pat_a + 16 * v);
    ref_b[v] = vld1q_u8(pat_b + 16 * v);
  }
  const uint8x16_t zero = vdupq_n_u8(0);
  alignas(16) uint8_t c_a[48], c_b[48];
  auto gate16 = [&](size_t i, uint64_t* any_a, uint64_t* any_b) {
    const uint8_t* base = rgb + 3 * i;
    uint8x16_t oka[3], okb[3];
    for (int v = 0; v < 3; ++v) {
      const uint8x16_t d = vld1q_u8(base + 16 * v);
      oka[v] = vcleq_u8(vabdq_u8(d, ref_a[v]), tol_a);
      okb[v] = vcleq_u8(vabdq_u8(d, ref_b[v]), tol_b);
    }
    // Pixel p passes when verdict bytes 3p, 3p+1, 3p+2 are all 0xFF.
    // vext provides the shifted-by-one/-two views in registers (bytes
    // past 47 read as zero and only feed positions 46/47, which no pixel
    // start uses), so byte 3p of the stored combine holds the whole
    // pixel and the pack loop reads one byte per pixel instead of three.
    for (int v = 0; v < 3; ++v) {
      const uint8x16_t na = v < 2 ? oka[v + 1] : zero;
      const uint8x16_t nb = v < 2 ? okb[v + 1] : zero;
      vst1q_u8(c_a + 16 * v,
               vandq_u8(oka[v], vandq_u8(vextq_u8(oka[v], na, 1),
                                         vextq_u8(oka[v], na, 2))));
      vst1q_u8(c_b + 16 * v,
               vandq_u8(okb[v], vandq_u8(vextq_u8(okb[v], nb, 1),
                                         vextq_u8(okb[v], nb, 2))));
    }
    uint8_t hit_a = 0, hit_b = 0;
    for (int p = 0; p < 16; ++p) {
      mask_a[i + p] = c_a[3 * p] & 1;
      mask_b[i + p] = c_b[3 * p] & 1;
      hit_a |= mask_a[i + p];
      hit_b |= mask_b[i + p];
    }
    *any_a |= hit_a;
    *any_b |= hit_b;
  };
#endif
  // Whole 64-pixel chunks: four vector groups, then the chunk's verdict.
  size_t i = 0;
  for (; i + kOccChunk <= n_px; i += kOccChunk) {
    uint64_t any_a = 0, any_b = 0;
    for (size_t q = 0; q < kOccChunk; q += 16) gate16(i + q, &any_a, &any_b);
    occ_a[i / kOccChunk] = any_a != 0 ? 1 : 0;
    occ_b[i / kOccChunk] = any_b != 0 ? 1 : 0;
  }
  if (i == n_px) return;
  // The short last chunk: whole vector groups, then a scalar tail.
  const size_t last = i / kOccChunk;
  uint64_t any_a = 0, any_b = 0;
  for (; i + 16 <= n_px; i += 16) gate16(i, &any_a, &any_b);
  if (i < n_px) {
    internal::ColorGatesScalar(rgb + 3 * i, n_px - i, ar, ag, ab, a_tol, br,
                               bg, bb, b_tol, mask_a + i, mask_b + i);
    any_a |= internal::AnyNonzero(mask_a + i, n_px - i);
    any_b |= internal::AnyNonzero(mask_b + i, n_px - i);
  }
  occ_a[last] = any_a != 0 ? 1 : 0;
  occ_b[last] = any_b != 0 ? 1 : 0;
}

#else

inline void ColorMasks2(const uint8_t* rgb, size_t n_px, uint8_t ar,
                        uint8_t ag, uint8_t ab, int a_tol, uint8_t br,
                        uint8_t bg, uint8_t bb, int b_tol, uint8_t* mask_a,
                        uint8_t* mask_b, uint8_t* occ_a, uint8_t* occ_b) {
  ColorMasks2Scalar(rgb, n_px, ar, ag, ab, a_tol, br, bg, bb, b_tol, mask_a,
                    mask_b, occ_a, occ_b);
}

#endif

// ---------------------------------------------------------------------------
// Runtime self-check: a compact probe of every kernel against its scalar
// reference. Benchmarks call this before trusting speedups; tests cover
// the same contract far more thoroughly.
// ---------------------------------------------------------------------------

inline bool SelfCheck() {
  // Deterministic pseudo-random fill (xorshift; no <random>, no seed
  // plumbing needed for a fixed probe).
  uint32_t s = 0x9E3779B9u;
  auto next = [&s]() {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return s;
  };

  {  // MatVec: 37 inputs (tail 1), 11 outputs (row tail 3).
    const int in = 37, out_n = 11;
    float w[37 * 11], bias[11], x[37], y_ref[11], y_simd[11];
    for (auto& v : w) v = static_cast<float>(static_cast<int>(next() % 17) - 8) * 0.25f;
    for (auto& v : bias) v = static_cast<float>(static_cast<int>(next() % 9) - 4) * 0.5f;
    for (auto& v : x) v = static_cast<float>(static_cast<int>(next() % 13) - 6) * 0.125f;
    MatVecScalar(w, bias, x, in, out_n, y_ref);
    MatVec(w, bias, x, in, out_n, y_simd);
    if (std::memcmp(y_ref, y_simd, sizeof(y_ref)) != 0) return false;
  }
  {  // Batched gradient: 3 samples, 19 inputs (8-, 4- and 1-wide tails),
     // 6 outputs (a 4-row block plus 2 single rows), a zero delta, and
     // non-dyadic values, so the sums round and their order shows.
    const int batch = 3, in = 19, out_n = 6;
    float a[3 * 19], d[3 * 6], g_ref[6 * 19], g_simd[6 * 19];
    for (auto& v : a) v = static_cast<float>(static_cast<int>(next() % 2001) - 1000) / 997.0f;
    for (auto& v : d) v = static_cast<float>(static_cast<int>(next() % 2001) - 1000) / 991.0f;
    d[4] = 0.0f;
    const float* rows[3] = {a, a + in, a + 2 * in};
    BatchGradientScalar(rows, d, batch, in, out_n, g_ref);
    BatchGradient(rows, d, batch, in, out_n, g_simd);
    if (std::memcmp(g_ref, g_simd, sizeof(g_ref)) != 0) return false;
  }
  {  // Adam step over 11 parameters (two vectors + a tail of 3), with and
     // without weight decay.
    const size_t n = 11;
    float grad[11], w_ref[11], m_ref[11], v_ref[11];
    for (auto& v : grad) v = static_cast<float>(static_cast<int>(next() % 17) - 8) * 0.375f;
    for (auto& v : w_ref) v = static_cast<float>(static_cast<int>(next() % 13) - 6) * 0.0625f;
    for (auto& v : m_ref) v = static_cast<float>(static_cast<int>(next() % 9) - 4) * 0.03125f;
    for (auto& v : v_ref) v = static_cast<float>(next() % 9) * 0.0078125f;
    float w_simd[11], m_simd[11], v_simd[11];
    std::memcpy(w_simd, w_ref, sizeof(w_ref));
    std::memcpy(m_simd, m_ref, sizeof(m_ref));
    std::memcpy(v_simd, v_ref, sizeof(v_ref));
    AdamStepParams p;
    p.grad_scale = 1.0f / 7.0f;
    p.l2 = 1e-4f;
    p.b1 = 0.9f;
    p.b2 = 0.999f;
    p.alpha = 3e-3f;
    p.eps = 1e-8f;
    for (bool decay : {true, false}) {
      p.decay = decay;
      AdamStepScalar(p, grad, n, w_ref, m_ref, v_ref);
      AdamStep(p, grad, n, w_simd, m_simd, v_simd);
    }
    if (std::memcmp(w_ref, w_simd, sizeof(w_ref)) != 0 ||
        std::memcmp(m_ref, m_simd, sizeof(m_ref)) != 0 ||
        std::memcmp(v_ref, v_simd, sizeof(v_ref)) != 0) {
      return false;
    }
  }
  {  // LBP codes on a 29x7 image (vector body + scalar borders/tail).
    const int w = 29, h = 7;
    uint8_t img[29 * 7], ref[29 * 7], got[29 * 7];
    for (auto& v : img) v = static_cast<uint8_t>(next());
    LbpCodesScalar(img, w, h, ref);
    LbpCodes(img, w, h, got);
    if (std::memcmp(ref, got, sizeof(ref)) != 0) return false;
  }
  {  // Color masks and their occupancy over 150 pixels (two whole chunks,
     // then a short one of one vector group and a tail of 6).
    const size_t n = 150;
    uint8_t rgb[150 * 3], ra[150], rb[150], ga[150], gb[150];
    uint8_t roa[3], rob[3], goa[3], gob[3];
    for (auto& v : rgb) v = static_cast<uint8_t>(next() % 64 + 96);
    ColorMasks2Scalar(rgb, n, 120, 110, 100, 20, 60, 50, 40, 26, ra, rb, roa,
                      rob);
    ColorMasks2(rgb, n, 120, 110, 100, 20, 60, 50, 40, 26, ga, gb, goa, gob);
    if (std::memcmp(ra, ga, n) != 0 || std::memcmp(rb, gb, n) != 0 ||
        std::memcmp(roa, goa, 3) != 0 || std::memcmp(rob, gob, 3) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace simd
}  // namespace dievent

#endif  // DIEVENT_COMMON_SIMD_H_
