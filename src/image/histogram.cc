#include "image/histogram.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "common/logging.h"
#include "common/strings.h"

namespace dievent {

namespace {

void Normalize(Histogram* h) {
  double total = 0.0;
  for (double b : h->bins) total += b;
  if (total > 0.0) {
    for (double& b : h->bins) b /= total;
  }
}

int Log2(int power_of_two) {
  return std::countr_zero(static_cast<unsigned>(power_of_two));
}

/// One channel value's soft split: its mass goes to flat bin offsets `lo`
/// and `hi` (bin index times the channel's stride) with integer weights
/// `w_lo + w_hi == q`, i.e. in units of 1/q where q = 2 * div.
struct SoftSplit {
  uint32_t lo, hi;
  uint32_t w_lo, w_hi;
};

/// Value v sits at fractional bin position p = v/div - 0.5; its mass is
/// split linearly between floor(p) and floor(p) + 1, with both bins clamped
/// into [0, n). In units of 1/q, p is (2v - div)/q, so with the offset
/// num = 2v + div = q * (floor(p) + 1) + w_hi every step is a nonnegative
/// integer division.
std::array<SoftSplit, 256> SoftSplitTable(int n, uint32_t stride) {
  const int div = 256 / n, q = 2 * div;
  std::array<SoftSplit, 256> lut;
  for (int v = 0; v < 256; ++v) {
    const int num = 2 * v + div;
    const int lo = std::clamp(num / q - 1, 0, n - 1);
    const int hi = std::min(n - 1, lo + 1);
    lut[v] = SoftSplit{lo * stride, hi * stride,
                       static_cast<uint32_t>(q - num % q),
                       static_cast<uint32_t>(num % q)};
  }
  return lut;
}

/// The soft kernel's row probe: true when at least kProbeRepeats of the
/// row's first kProbePixels pixels equal their left neighbour. Rendered
/// background and table rows pass; a noisy sensor row fails within 16
/// pixels and keeps the per-pixel loop, which signs σ = 6 views about 1.6×
/// faster than the run loop does (DESIGN.md §16).
constexpr int kProbePixels = 16;
constexpr int kProbeRepeats = 8;

bool HasRepeats(const uint8_t* row, int width) {
  const int probe = std::min(width, kProbePixels);
  int repeats = 0;
  for (int x = 1; x < probe; ++x) {
    const uint8_t* px = row + 3 * x;
    repeats += px[0] == px[-3] && px[1] == px[-2] && px[2] == px[-1];
  }
  return repeats >= kProbeRepeats;
}

}  // namespace

bool IsValidBinCount(int bins) {
  return bins >= 1 && bins <= 256 &&
         std::has_single_bit(static_cast<unsigned>(bins));
}

Status ValidateBinCount(int bins, const char* option) {
  if (IsValidBinCount(bins)) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "%s must be a power of two in [1, 256], got %d", option, bins));
}

Histogram ComputeColorHistogram(const ImageRgb& rgb, int bins_per_channel,
                                bool soft_binning) {
  DIEVENT_CHECK(rgb.channels() == 3 && IsValidBinCount(bins_per_channel))
      << "bins_per_channel " << bins_per_channel;
  const int n = bins_per_channel;
  // One integer accumulator for both modes: plain counts (hard) or weight
  // products in units of q^-3 (soft). Bin (r, g, b) is (r * n + g) * n + b.
  std::vector<uint64_t> acc(static_cast<size_t>(n) * n * n, 0);
  const uint8_t* p = rgb.data().data();
  const uint8_t* const end = p + rgb.data().size() / 3 * 3;
  double unit = 1.0;
  if (!soft_binning) {
    const int s = Log2(n), shift = Log2(256 / n);
    for (; p != end; p += 3) {
      ++acc[((p[0] >> shift) << (2 * s)) | ((p[1] >> shift) << s) |
            (p[2] >> shift)];
    }
  } else {
    // Red and green split per pixel; blue splits after the scan. Blue's
    // weights depend only on its value, so the pixels of one (red, green)
    // corner bin and blue value can be summed first and split once:
    // sum_p w_rg(p) w_b(v_p) = sum_v w_b(v) * sum_{p : v_p = v} w_rg(p).
    // That halves the per-pixel updates; integer sums make it exact.
    const uint32_t nn = static_cast<uint32_t>(n);
    const std::array<SoftSplit, 256> r_lut = SoftSplitTable(n, nn * 256);
    const std::array<SoftSplit, 256> g_lut = SoftSplitTable(n, 256);
    std::vector<uint64_t> rg_by_blue(static_cast<size_t>(n) * n * 256, 0);
    // Adds `count` copies of pixel `px`. Weight products stay below
    // q^2 <= 2^18, so count times one stays far inside 64 bits and equals
    // the sum of `count` single updates.
    auto add = [&](const uint8_t* px, uint64_t count) {
      const SoftSplit& r = r_lut[px[0]];
      const SoftSplit& g = g_lut[px[1]];
      uint64_t* const blue = rg_by_blue.data() + px[2];
      blue[r.lo + g.lo] += r.w_lo * g.w_lo * count;
      blue[r.lo + g.hi] += r.w_lo * g.w_hi * count;
      blue[r.hi + g.lo] += r.w_hi * g.w_lo * count;
      blue[r.hi + g.hi] += r.w_hi * g.w_hi * count;
    };
    const size_t row_bytes = static_cast<size_t>(rgb.width()) * 3;
    for (int y = 0; y < rgb.height(); ++y) {
      const uint8_t* const row_end = p + row_bytes;
      if (HasRepeats(p, rgb.width())) {
        // Flat row: each run of identical pixels is one update.
        while (p != row_end) {
          const uint8_t* run = p + 3;
          while (run != row_end && run[0] == p[0] && run[1] == p[1] &&
                 run[2] == p[2]) {
            run += 3;
          }
          add(p, static_cast<uint64_t>(run - p) / 3);
          p = run;
        }
      } else {
        for (; p != row_end; p += 3) add(p, 1);
      }
    }
    const std::array<SoftSplit, 256> b_lut = SoftSplitTable(n, 1);
    for (size_t rg = 0; rg < static_cast<size_t>(n) * n; ++rg) {
      const uint64_t* const by_value = rg_by_blue.data() + rg * 256;
      uint64_t* const bins = acc.data() + rg * n;
      for (int v = 0; v < 256; ++v) {
        const SoftSplit& b = b_lut[v];
        bins[b.lo] += by_value[v] * b.w_lo;
        bins[b.hi] += by_value[v] * b.w_hi;
      }
    }
    const double q = 2.0 * (256 / n);
    unit = 1.0 / (q * q * q);  // a power of two: the scaling is exact
  }
  Histogram h;
  h.bins.resize(acc.size());
  for (size_t i = 0; i < acc.size(); ++i) {
    h.bins[i] = static_cast<double>(acc[i]) * unit;
  }
  Normalize(&h);
  return h;
}

double ChiSquareDistance(const Histogram& a, const Histogram& b) {
  assert(a.bins.size() == b.bins.size());
  double d = 0.0;
  for (size_t i = 0; i < a.bins.size(); ++i) {
    double s = a.bins[i] + b.bins[i];
    if (s > 0.0) {
      double diff = a.bins[i] - b.bins[i];
      d += diff * diff / s;
    }
  }
  return d;
}

double L1Distance(const Histogram& a, const Histogram& b) {
  assert(a.bins.size() == b.bins.size());
  double d = 0.0;
  for (size_t i = 0; i < a.bins.size(); ++i)
    d += std::abs(a.bins[i] - b.bins[i]);
  return d;
}

double IntersectionSimilarity(const Histogram& a, const Histogram& b) {
  assert(a.bins.size() == b.bins.size());
  double s = 0.0;
  for (size_t i = 0; i < a.bins.size(); ++i)
    s += std::min(a.bins[i], b.bins[i]);
  return s;
}

}  // namespace dievent
