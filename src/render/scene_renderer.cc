#include "render/scene_renderer.h"

#include <algorithm>
#include <cmath>

#include "image/draw.h"
#include "render/face_renderer.h"

namespace dievent {

namespace {

Rgb Scale(const Rgb& c, double s) {
  auto f = [s](uint8_t v) {
    return static_cast<uint8_t>(std::clamp(v * s, 0.0, 255.0));
  };
  return Rgb{f(c.r), f(c.g), f(c.b)};
}

void ApplyNoise(ImageRgb* img, double sigma, Rng* rng) {
  if (sigma <= 0.0 || rng == nullptr) return;
  for (uint8_t& v : img->data()) {
    double nv = v + rng->Gaussian(0.0, sigma);
    v = static_cast<uint8_t>(std::clamp(nv, 0.0, 255.0));
  }
}

}  // namespace

bool IsFrontFacing(const CameraModel& camera, const ParticipantState& state) {
  Vec3 gaze_cam =
      camera.camera_from_world().TransformDirection(state.gaze_direction);
  return gaze_cam.z < face_model::kFrontFacingMaxZ;
}

ImageRgb RenderView(const DiningScene& scene,
                    const std::vector<ParticipantState>& states,
                    int camera_index, const RenderOptions& options,
                    Rng* rng) {
  const CameraModel& cam = scene.rig().camera(camera_index);
  const Intrinsics& k = cam.intrinsics();
  ImageRgb frame(k.width, k.height, 3);

  FillRect(&frame, 0, 0, k.width, k.height,
           Scale(options.background, options.illumination));

  if (options.draw_table) {
    const Table& t = scene.table();
    const double hx = t.size.x / 2.0, hy = t.size.y / 2.0;
    const Vec3 corners[4] = {
        t.center + Vec3{-hx, -hy, 0}, t.center + Vec3{hx, -hy, 0},
        t.center + Vec3{hx, hy, 0}, t.center + Vec3{-hx, hy, 0}};
    std::vector<Vec2> pts;
    bool all_front = true;
    for (const Vec3& c : corners) {
      auto px = cam.ProjectWorldPoint(c);
      if (!px) {
        all_front = false;
        break;
      }
      pts.push_back(*px);
    }
    if (all_front) {
      FillConvexPolygon(&frame, pts,
                        Scale(options.table_color, options.illumination));
    }
  }

  // Depth-sort participants, far first, so near heads occlude far ones.
  std::vector<int> order(states.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return cam.DepthOf(states[a].head_position) >
           cam.DepthOf(states[b].head_position);
  });

  for (int id : order) {
    const ParticipantState& s = states[id];
    double depth = cam.DepthOf(s.head_position);
    if (depth <= 0.05) continue;
    auto center = cam.ProjectWorldPoint(s.head_position);
    if (!center) continue;
    double radius_px =
        k.fx * scene.profile(id).head_radius / depth;
    if (radius_px < 2.0) continue;
    if (center->x < -radius_px || center->x > k.width + radius_px ||
        center->y < -radius_px || center->y > k.height + radius_px) {
      continue;
    }

    FaceRenderParams p;
    p.center_px = *center;
    p.radius_px = radius_px;
    p.marker_color = Scale(scene.profile(id).marker_color,
                           options.illumination);
    p.emotion = s.emotion;
    p.intensity = s.emotion_intensity;
    p.front_facing = IsFrontFacing(cam, s);
    if (p.front_facing) {
      Vec3 gaze_cam =
          cam.camera_from_world().TransformDirection(s.gaze_direction);
      p.gaze_x = gaze_cam.x;
      p.gaze_y = gaze_cam.y;
    }
    RenderFace(&frame, p);
  }

  ApplyNoise(&frame, options.noise_sigma, rng);
  return frame;
}

ImageRgb RenderViewAt(const DiningScene& scene, double t, int camera_index,
                      const RenderOptions& options, Rng* rng) {
  return RenderView(scene, scene.StateAt(t), camera_index, options, rng);
}

}  // namespace dievent
