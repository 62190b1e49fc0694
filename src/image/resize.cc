#include "image/resize.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dievent {

void ResizeBilinearInto(const ImageU8& gray, int nw, int nh, ImageU8* out) {
  assert(gray.channels() == 1);
  assert(nw > 0 && nh > 0 && !gray.empty() && out != &gray);
  out->Reshape(nw, nh, 1);
  const double sx = static_cast<double>(gray.width()) / nw;
  const double sy = static_cast<double>(gray.height()) / nh;
  for (int y = 0; y < nh; ++y) {
    double fy = (y + 0.5) * sy - 0.5;
    int y0 = static_cast<int>(std::floor(fy));
    double wy = fy - y0;
    for (int x = 0; x < nw; ++x) {
      double fx = (x + 0.5) * sx - 0.5;
      int x0 = static_cast<int>(std::floor(fx));
      double wx = fx - x0;
      double v00 = gray.AtClamped(x0, y0);
      double v10 = gray.AtClamped(x0 + 1, y0);
      double v01 = gray.AtClamped(x0, y0 + 1);
      double v11 = gray.AtClamped(x0 + 1, y0 + 1);
      double v = v00 * (1 - wx) * (1 - wy) + v10 * wx * (1 - wy) +
                 v01 * (1 - wx) * wy + v11 * wx * wy;
      out->at(x, y) = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
    }
  }
}

}  // namespace dievent
