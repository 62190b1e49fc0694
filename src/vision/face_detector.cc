#include "vision/face_detector.h"

#include <algorithm>
#include <cstdint>

#include "common/simd.h"
#include "render/face_renderer.h"

namespace dievent {

double IoU(const BBox& a, const BBox& b) {
  int x1 = std::max(a.x, b.x);
  int y1 = std::max(a.y, b.y);
  int x2 = std::min(a.x2(), b.x2());
  int y2 = std::min(a.y2(), b.y2());
  int inter = std::max(0, x2 - x1) * std::max(0, y2 - y1);
  int uni = a.Area() + b.Area() - inter;
  return uni > 0 ? static_cast<double>(inter) / uni : 0.0;
}

namespace {

/// Per-channel color gate half-widths around the model skin/hair tones.
/// Wide enough for heavy pixel noise (5 sigma at sigma=6), narrow enough
/// that identity-marker colors a channel-distance > 32 away can never read
/// as skin.
constexpr int kSkinTolerance = 32;
constexpr int kHairTolerance = 26;
constexpr double kMinRadiusPx = 4.0;
/// Components larger than this fraction of the smaller frame dimension are
/// rejected (a head never fills the frame in a surveillance view, and a
/// background-colored region sneaking through the gates would).
constexpr double kMaxRadiusFraction = 0.49;
/// Minimum component-area / disc-area ratio; rejects thin streaks.
constexpr double kMinFillRatio = 0.25;
/// Accepted bbox width/height range; heads are roughly round.
constexpr double kMinAspect = 0.45;
constexpr double kMaxAspect = 2.2;
/// Detections overlapping more than this IoU are non-max suppressed.
constexpr double kNmsIou = 0.4;

/// Workspace of one Detect call: the two color masks, each with its chunk
/// occupancy map, and the flood-fill stack that the skin and hair
/// component passes share. Capacity only grows, so steady-state frames
/// reuse it without touching the heap.
struct DetectScratch {
  std::vector<uint8_t> skin_mask;
  std::vector<uint8_t> hair_mask;
  std::vector<uint8_t> skin_occupancy;
  std::vector<uint8_t> hair_occupancy;
  std::vector<int32_t> stack;

  /// Makes every per-pixel buffer hold at least `n` entries.
  void GrowTo(size_t n) {
    if (skin_mask.size() >= n) return;
    skin_mask.resize(n);
    hair_mask.resize(n);
    skin_occupancy.resize(simd::OccupancyEntries(n));
    hair_occupancy.resize(simd::OccupancyEntries(n));
  }
};

struct Component {
  BBox bbox;
  long long area = 0;
};

/// 4-connected component extraction over a binary mask, which it consumes:
/// a pixel's mask byte is cleared when the pixel joins a component, so the
/// mask itself records which pixels are visited and no label array is
/// needed.
///
/// The scan is driven by the mask's chunk-occupancy map `occ` (one byte
/// per 64 mask bytes, written with the mask by simd::ColorMasks2): the
/// component-seed walk visits occupied chunks only, so the cost scales
/// with mask density, not frame area — on a typical dining frame faces
/// cover a few percent of the pixels. Every nonzero mask byte lies in an
/// occupied chunk, so no seed is missed. Occupied chunks are walked in
/// index order, so seeds are discovered in exactly the row-major order of
/// the full scan and the component list (and everything downstream) is
/// bit-identical to it.
///
/// The stack comes from `scratch`; both passes of a Detect call reuse it.
std::vector<Component> FindComponents(uint8_t* mask, const uint8_t* occ,
                                      int width, int height,
                                      DetectScratch* scratch) {
  // lint: hot-path-begin(find-components)
  // The returned list is the function's product and escapes the frame, so
  // it alone stays on the heap.
  std::vector<Component> comps;  // lint: allow(hot-path-alloc)
  const size_t n = static_cast<size_t>(width) * height;
  const size_t chunks = simd::OccupancyEntries(n);
  std::vector<int32_t>& stack = scratch->stack;
  for (size_t c = 0; c < chunks; ++c) {
    if (!occ[c]) continue;
    const size_t begin = c * simd::kOccChunk;
    const size_t end = std::min(n, begin + simd::kOccChunk);
    for (size_t idx = begin; idx < end; ++idx) {
      if (!mask[idx]) continue;
      const int x = static_cast<int>(idx) % width;
      const int y = static_cast<int>(idx) / width;
      Component comp;
      int min_x = x, max_x = x, min_y = y, max_y = y;
      stack.clear();
      stack.push_back(static_cast<int>(idx));
      mask[idx] = 0;
      while (!stack.empty()) {
        int cur = stack.back();
        stack.pop_back();
        int cx = cur % width, cy = cur / width;
        ++comp.area;
        min_x = std::min(min_x, cx);
        max_x = std::max(max_x, cx);
        min_y = std::min(min_y, cy);
        max_y = std::max(max_y, cy);
        static constexpr int kNeighbors[4][2] = {
            {1, 0}, {-1, 0}, {0, 1}, {0, -1}};
        for (const auto& d : kNeighbors) {
          int nx = cx + d[0], ny = cy + d[1];
          if (nx < 0 || nx >= width || ny < 0 || ny >= height) continue;
          size_t nidx = static_cast<size_t>(ny) * width + nx;
          if (mask[nidx]) {
            mask[nidx] = 0;
            stack.push_back(static_cast<int>(nidx));
          }
        }
      }
      comp.bbox = BBox{min_x, min_y, max_x - min_x + 1, max_y - min_y + 1};
      comps.push_back(comp);
    }
  }
  return comps;
  // lint: hot-path-end
}

}  // namespace

std::vector<FaceDetection> FaceDetector::Detect(const ImageRgb& frame) const {
  if (frame.channels() != 3) return {};
  // The pipelined executor runs Detect concurrently across cameras and
  // frames, so the workspace is per thread.
  thread_local DetectScratch scratch;
  const int w = frame.width(), h = frame.height();
  const size_t n = static_cast<size_t>(w) * h;
  scratch.GrowTo(n);
  // lint: hot-path-begin(face-detect)
  // Detections escape the frame (they flow into tracks and records); the
  // raw and suppressed lists are the only heap traffic left here.
  std::vector<FaceDetection> raw;  // lint: allow(hot-path-alloc)

  // Both color gates and both occupancy maps come from one pass over the
  // pixel data (the frame streams through the cache once, 16 pixels per
  // step under SIMD).
  const Rgb skin = face_model::kSkin;
  const Rgb hair = face_model::kHair;
  simd::ColorMasks2(frame.data().data(), n, skin.r, skin.g, skin.b,
                    kSkinTolerance, hair.r, hair.g, hair.b, kHairTolerance,
                    scratch.skin_mask.data(), scratch.hair_mask.data(),
                    scratch.skin_occupancy.data(),
                    scratch.hair_occupancy.data());

  for (bool front : {true, false}) {
    uint8_t* mask =
        front ? scratch.skin_mask.data() : scratch.hair_mask.data();
    const uint8_t* occ =
        front ? scratch.skin_occupancy.data() : scratch.hair_occupancy.data();
    for (const Component& c : FindComponents(mask, occ, w, h, &scratch)) {
      // The head disc's widest extent is skin/hair on both sides, so the
      // bbox width is the best radius estimate; the bottom of the disc is
      // uncovered, so the centre sits one radius above the bbox bottom.
      double radius = c.bbox.w / 2.0;
      if (radius < kMinRadiusPx) continue;
      if (radius > kMaxRadiusFraction * std::min(w, h)) continue;
      double aspect = static_cast<double>(c.bbox.w) / c.bbox.h;
      if (aspect < kMinAspect || aspect > kMaxAspect) continue;
      constexpr double kPi = 3.14159265358979323846;
      double fill = static_cast<double>(c.area) / (kPi * radius * radius);
      if (fill < kMinFillRatio) continue;
      FaceDetection det;
      det.bbox = c.bbox;
      det.radius_px = radius;
      // Pixel centres: the last covered row sits ~0.5 px above the disc's
      // true bottom edge, hence the -0.5 to keep the centre unbiased.
      det.center_px =
          Vec2{c.bbox.x + (c.bbox.w - 1) / 2.0, c.bbox.y2() - 0.5 - radius};
      det.score = std::min(1.0, fill);
      det.front_facing = front;
      raw.push_back(det);
    }
  }

  // Non-max suppression across both classes (a face and its own hat gap
  // should never produce two detections, but merged blobs can).
  std::sort(raw.begin(), raw.end(),
            [](const FaceDetection& a, const FaceDetection& b) {
              return a.score > b.score;
            });
  // The suppressed list escapes the frame with the detections;
  // see the region-level note at face-detect's begin marker.
  std::vector<FaceDetection> out;  // lint: allow(hot-path-alloc)
  for (const FaceDetection& det : raw) {
    bool keep = true;
    for (const FaceDetection& kept : out) {
      if (IoU(det.bbox, kept.bbox) > kNmsIou) {
        keep = false;
        break;
      }
    }
    if (keep) out.push_back(det);
  }
  return out;
  // lint: hot-path-end
}

}  // namespace dievent
