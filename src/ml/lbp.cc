#include "ml/lbp.h"

#include <array>
#include <cassert>

#include "common/simd.h"

namespace dievent {

namespace {

/// Builds the uniform-pattern lookup table once: a code is "uniform" when
/// its circular bit string has at most two 0-1 transitions.
std::array<int, 256> BuildUniformTable() {
  std::array<int, 256> table{};
  int next_bin = 0;
  for (int code = 0; code < 256; ++code) {
    int transitions = 0;
    for (int b = 0; b < 8; ++b) {
      int cur = (code >> b) & 1;
      int nxt = (code >> ((b + 1) % 8)) & 1;
      if (cur != nxt) ++transitions;
    }
    table[code] = transitions <= 2 ? next_bin++ : -1;
  }
  // next_bin == 58 here; non-uniform codes share the last bin.
  for (int code = 0; code < 256; ++code) {
    if (table[code] < 0) table[code] = next_bin;
  }
  return table;
}

const std::array<int, 256>& UniformTable() {
  static const std::array<int, 256> table = BuildUniformTable();
  return table;
}

}  // namespace

void ComputeLbpCodesInto(const ImageU8& gray, ImageU8* out) {
  assert(gray.channels() == 1);
  out->Reshape(gray.width(), gray.height());
  // The row-wise branch-free kernel (clockwise-from-top-left LBP(8,1)
  // ring, clamped borders) lives in common/simd.h.
  simd::LbpCodes(gray.data().data(), gray.width(), gray.height(),
                 out->data().data());
}

int UniformLbpBin(uint8_t code) { return UniformTable()[code]; }

void LbpGridFeaturesInto(const ImageU8& gray, int grid_x, int grid_y,
                         ImageU8* codes_scratch,
                         std::vector<float>* features) {
  assert(grid_x > 0 && grid_y > 0);
  ComputeLbpCodesInto(gray, codes_scratch);
  const ImageU8& codes = *codes_scratch;
  features->clear();
  features->reserve(static_cast<size_t>(grid_x) * grid_y * kUniformLbpBins);
  for (int gy = 0; gy < grid_y; ++gy) {
    for (int gx = 0; gx < grid_x; ++gx) {
      int x0 = gx * gray.width() / grid_x;
      int x1 = (gx + 1) * gray.width() / grid_x;
      int y0 = gy * gray.height() / grid_y;
      int y1 = (gy + 1) * gray.height() / grid_y;
      float hist[kUniformLbpBins] = {};
      int count = 0;
      for (int y = y0; y < y1; ++y) {
        const uint8_t* row =
            codes.data().data() + static_cast<size_t>(y) * codes.width();
        for (int x = x0; x < x1; ++x) {
          hist[UniformLbpBin(row[x])] += 1.0f;
          ++count;
        }
      }
      if (count > 0) {
        for (float& v : hist) v /= static_cast<float>(count);
      }
      features->insert(features->end(), hist, hist + kUniformLbpBins);
    }
  }
}

}  // namespace dievent
