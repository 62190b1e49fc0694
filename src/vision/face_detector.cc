#include "vision/face_detector.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/arena.h"
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

bool NearColor(const ImageRgb& img, int x, int y, const Rgb& ref, int tol) {
  return std::abs(img.at(x, y, 0) - ref.r) <= tol &&
         std::abs(img.at(x, y, 1) - ref.g) <= tol &&
         std::abs(img.at(x, y, 2) - ref.b) <= tol;
}

struct Component {
  BBox bbox;
  long long area = 0;
};

/// 4-connected component extraction over a binary mask.
///
/// The scan is driven by a chunk-occupancy map (one byte per 64 mask
/// bytes, built by a SIMD OR-reduce): the component-seed walk and the
/// label-array clear both visit occupied chunks only, so the cost scales
/// with mask density, not frame area — on a typical dining frame faces
/// cover a few percent of the pixels. Skipping the clear of unoccupied
/// chunks is sound because labels are only ever read at indices where the
/// mask is nonzero, and every such index lies in an occupied chunk.
/// Occupied chunks are walked in index order, so seeds are discovered in
/// exactly the row-major order of the full scan and the component list
/// (and everything downstream) is bit-identical to it.
///
/// All scratch (occupancy, labels, stack) lives on the caller's arena.
std::vector<Component> FindComponents(const uint8_t* mask, int width,
                                      int height, Arena* arena) {
  // lint: hot-path-begin(find-components)
  // The returned list is the function's product and escapes the frame, so
  // it alone stays on the heap.
  std::vector<Component> comps;  // lint: allow(hot-path-alloc)
  const size_t n = static_cast<size_t>(width) * height;
  const size_t chunks = simd::OccupancyEntries(n);
  uint8_t* occ = arena->AllocateArray<uint8_t>(chunks);
  simd::OccupancyMap(mask, n, occ);
  int32_t* label = arena->AllocateArray<int32_t>(n);
  for (size_t c = 0; c < chunks; ++c) {
    if (!occ[c]) continue;
    const size_t begin = c * simd::kOccChunk;
    const size_t end = std::min(n, begin + simd::kOccChunk);
    std::fill(label + begin, label + end, -1);
  }
  ArenaVector<int32_t> stack{ArenaAllocator<int32_t>(arena)};
  for (size_t c = 0; c < chunks; ++c) {
    if (!occ[c]) continue;
    const size_t begin = c * simd::kOccChunk;
    const size_t end = std::min(n, begin + simd::kOccChunk);
    for (size_t idx = begin; idx < end; ++idx) {
      if (!mask[idx] || label[idx] >= 0) continue;
      const int x = static_cast<int>(idx) % width;
      const int y = static_cast<int>(idx) / width;
      int id = static_cast<int>(comps.size());
      Component comp;
      int min_x = x, max_x = x, min_y = y, max_y = y;
      stack.clear();
      stack.push_back(static_cast<int>(idx));
      label[idx] = id;
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
          if (mask[nidx] && label[nidx] < 0) {
            label[nidx] = id;
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
  // Every frame-sized buffer (color masks, component labels, flood-fill
  // stack, chunk occupancy) is carved from this arena, reset on entry: zero
  // heap allocations per frame once the block chain has warmed up. The
  // pipelined executor runs Detect concurrently across cameras and frames,
  // so the arena is per thread.
  thread_local Arena arena;
  arena.Reset();
  const int w = frame.width(), h = frame.height();
  // lint: hot-path-begin(face-detect)
  // Detections escape the frame (they flow into tracks and records); the
  // raw and suppressed lists are the only heap traffic left here.
  std::vector<FaceDetection> raw;  // lint: allow(hot-path-alloc)

  // Both color gates are evaluated in one pass over the pixel data (the
  // frame streams through the cache once, 16 pixels per step under SIMD).
  const size_t n = static_cast<size_t>(w) * h;
  uint8_t* skin_mask = arena.AllocateArray<uint8_t>(n);
  uint8_t* hair_mask = arena.AllocateArray<uint8_t>(n);
  const Rgb skin = face_model::kSkin;
  const Rgb hair = face_model::kHair;
  const int skin_tol = options_.skin_tolerance;
  const int hair_tol = options_.hair_tolerance;
  if (frame.channels() == 3) {
    simd::ColorMasks2(frame.data().data(), n, skin.r, skin.g, skin.b,
                      skin_tol, hair.r, hair.g, hair.b, hair_tol, skin_mask,
                      hair_mask);
  } else {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const size_t i = static_cast<size_t>(y) * w + x;
        skin_mask[i] = NearColor(frame, x, y, skin, skin_tol) ? 1 : 0;
        hair_mask[i] = NearColor(frame, x, y, hair, hair_tol) ? 1 : 0;
      }
    }
  }

  for (bool front : {true, false}) {
    const uint8_t* mask = front ? skin_mask : hair_mask;
    for (const Component& c : FindComponents(mask, w, h, &arena)) {
      // The head disc's widest extent is skin/hair on both sides, so the
      // bbox width is the best radius estimate; the bottom of the disc is
      // uncovered, so the centre sits one radius above the bbox bottom.
      double radius = c.bbox.w / 2.0;
      if (radius < options_.min_radius_px) continue;
      if (radius > options_.max_radius_fraction * std::min(w, h)) continue;
      double aspect = static_cast<double>(c.bbox.w) / c.bbox.h;
      if (aspect < options_.min_aspect || aspect > options_.max_aspect) {
        continue;
      }
      constexpr double kPi = 3.14159265358979323846;
      double fill = static_cast<double>(c.area) / (kPi * radius * radius);
      if (fill < options_.min_fill_ratio) continue;
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
      if (IoU(det.bbox, kept.bbox) > options_.nms_iou) {
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
