#include "render/scene_renderer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "image/draw.h"
#include "io/crc32.h"
#include "render/face_renderer.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

int CountNear(const ImageRgb& img, const Rgb& ref, int tol) {
  int n = 0;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      Rgb c = GetRgb(img, x, y);
      if (std::abs(c.r - ref.r) <= tol && std::abs(c.g - ref.g) <= tol &&
          std::abs(c.b - ref.b) <= tol) {
        ++n;
      }
    }
  }
  return n;
}

TEST(SceneRenderer, FrameHasRigResolution) {
  DiningScene scene = MakeMeetingScenario();
  ImageRgb frame = RenderViewAt(scene, 0.0, 0, RenderOptions{});
  EXPECT_EQ(frame.width(), 640);
  EXPECT_EQ(frame.height(), 480);
  EXPECT_EQ(frame.channels(), 3);
}

TEST(SceneRenderer, ContainsFacesAndTable) {
  DiningScene scene = MakeMeetingScenario();
  RenderOptions opt;
  ImageRgb frame = RenderViewAt(scene, 10.0, 0, opt);
  EXPECT_GT(CountNear(frame, face_model::kSkin, 2), 200);
  EXPECT_GT(CountNear(frame, opt.table_color, 2), 2000);
  EXPECT_GT(CountNear(frame, opt.background, 2), 50000);
}

TEST(SceneRenderer, DisableTableRemovesIt) {
  DiningScene scene = MakeMeetingScenario();
  RenderOptions opt;
  opt.draw_table = false;
  ImageRgb frame = RenderViewAt(scene, 10.0, 0, opt);
  EXPECT_EQ(CountNear(frame, opt.table_color, 2), 0);
}

TEST(SceneRenderer, IlluminationScalesBackground) {
  DiningScene scene = MakeMeetingScenario();
  RenderOptions dim;
  dim.illumination = 0.5;
  ImageRgb frame = RenderViewAt(scene, 0.0, 0, dim);
  Rgb corner = GetRgb(frame, 0, 0);
  EXPECT_NEAR(corner.r, dim.background.r * 0.5, 2);
  EXPECT_NEAR(corner.g, dim.background.g * 0.5, 2);
}

TEST(SceneRenderer, NoiseRequiresRng) {
  DiningScene scene = MakeMeetingScenario();
  RenderOptions opt;
  opt.noise_sigma = 10.0;
  ImageRgb clean = RenderViewAt(scene, 0.0, 0, opt, nullptr);
  ImageRgb clean2 = RenderViewAt(scene, 0.0, 0, opt, nullptr);
  EXPECT_TRUE(clean == clean2);
  Rng rng(99);
  ImageRgb noisy = RenderViewAt(scene, 0.0, 0, opt, &rng);
  EXPECT_FALSE(noisy == clean);
}

TEST(SceneRenderer, IsFrontFacingMatchesGazeGeometry) {
  DiningScene scene = MakeMeetingScenario();
  auto states = scene.StateAt(10.0);
  // P1 at (-1,0) looks at P3 at (1,0): away from cameras on the -x wall,
  // towards cameras on the +x wall.
  const CameraModel& c1 = scene.rig().camera(0);  // corner (-2.5, -2)
  const CameraModel& c2 = scene.rig().camera(1);  // corner (+2.5, -2)
  EXPECT_FALSE(IsFrontFacing(c1, states[0]));
  EXPECT_TRUE(IsFrontFacing(c2, states[0]));
}

TEST(SceneRenderer, EveryParticipantFrontalSomewhere) {
  // The prototype's 4-corner rig guarantees at least one frontal view per
  // participant whenever they look at another participant — the paper's
  // reason for using four cameras.
  DiningScene scene = MakeMeetingScenario();
  for (int f = 0; f < scene.num_frames(); f += 25) {
    auto states = scene.StateAt(scene.TimeOfFrame(f));
    for (int i = 0; i < scene.NumParticipants(); ++i) {
      if (states[i].gaze_target < 0) continue;  // looking at the table
      bool frontal = false;
      for (int c = 0; c < scene.rig().NumCameras(); ++c) {
        if (IsFrontFacing(scene.rig().camera(c), states[i])) frontal = true;
      }
      EXPECT_TRUE(frontal) << "frame " << f << " participant " << i;
    }
  }
}

TEST(SceneRenderer, OcclusionDrawsNearFaceOnTop) {
  // Two participants on one viewing ray: the nearer head must occlude.
  Table table;
  std::vector<ScriptedParticipant> people;
  ScriptedParticipant a, b;
  a.profile.id = 0;
  a.profile.name = "near";
  a.profile.marker_color = Rgb{250, 0, 0};
  a.seat_head_position = {1.0, 0, 1.0};
  b.profile.id = 1;
  b.profile.name = "far";
  b.profile.marker_color = Rgb{0, 0, 250};
  b.seat_head_position = {2.0, 0, 1.0};
  people.push_back(a);
  people.push_back(b);
  Rig rig;
  rig.AddCamera(CameraModel("C", Intrinsics::FromFov(640, 480, 1.2),
                            Pose::LookAt({-1, 0, 1.0}, {1, 0, 1.0})));
  auto scene = DiningScene::Create(table, std::move(rig), people, 10, 10);
  ASSERT_TRUE(scene.ok());
  RenderOptions opt;
  opt.draw_table = false;
  ImageRgb frame = RenderViewAt(scene.value(), 0.0, 0, opt);
  // Near (red-capped) head visible; far (blue-capped) fully hidden.
  EXPECT_GT(CountNear(frame, Rgb{250, 0, 0}, 2), 20);
  EXPECT_EQ(CountNear(frame, Rgb{0, 0, 250}, 2), 0);
}

uint32_t Digest(const ImageRgb& img) {
  return Crc32(img.data().data(), img.data().size());
}

// CRC-32 digests of every meeting camera at four times, clean and with
// sigma = 6 noise (one Rng per view, seeded from camera and time), plus
// one dimmed view on another background. They were captured from the
// per-pixel renderer (PutRgb for every background, table and face
// pixel); any change to a rendered byte changes a digest.
TEST(SceneRendererDigest, MeetingViewsAreByteIdenticalToThePerPixelRenderer) {
  const DiningScene scene = MakeMeetingScenario();
  const std::vector<uint32_t> want = {
      // sigma = 0; t = 0, 7.5, 13, 22; cameras 0-3 each.
      1873067597u, 2478753561u, 4112371420u, 2372323156u,  //
      2406721096u, 620931919u, 1455252205u, 504534583u,    //
      2660874783u, 2734163396u, 1455252205u, 2615938407u,  //
      3146268110u, 1574766223u, 2615387833u, 4023834635u,  //
      // sigma = 6.
      2508685263u, 1102950871u, 4153362819u, 2853315005u,  //
      3464220260u, 3641413448u, 736030783u, 3154644637u,   //
      2555515370u, 1106310016u, 2247396379u, 793726346u,   //
      2846193171u, 174403879u, 1545296346u, 3255431499u,   //
      // illumination 0.6 on background (200, 30, 70), camera 2, t = 13.
      1924419163u};
  std::vector<uint32_t> got;
  for (double sigma : {0.0, 6.0}) {
    RenderOptions opt;
    opt.noise_sigma = sigma;
    for (double t : {0.0, 7.5, 13.0, 22.0}) {
      for (int cam = 0; cam < scene.rig().NumCameras(); ++cam) {
        Rng rng(1000 + 17 * cam + static_cast<uint64_t>(t * 10));
        got.push_back(Digest(RenderViewAt(scene, t, cam, opt, &rng)));
      }
    }
  }
  RenderOptions dim;
  dim.illumination = 0.6;
  dim.background = Rgb{200, 30, 70};
  got.push_back(Digest(RenderViewAt(scene, 13.0, 2, dim)));
  EXPECT_EQ(got, want);
}

TEST(SceneRendererDigest, FaceCropsAreByteIdenticalToThePerPixelRenderer) {
  // Sizes 8, 48, 57 and 130; each emotion in kAllEmotions order.
  const std::vector<uint32_t> want = {
      2717036510u, 2717036510u, 3465067691u, 3221078395u, 3518472642u,
      3603162365u, 3603162365u, 93132681u,   1650424095u, 1907584873u,
      2051562272u, 3812943411u, 2447613220u, 1405821753u, 4255933545u,
      695759891u,  1505239545u, 3046688120u, 1963602615u, 3614416967u,
      2458819988u, 868864188u,  1512814901u, 1983932625u, 2531047434u,
      3702735470u, 3808614419u, 12986571u};
  std::vector<uint32_t> got;
  for (int size : {8, 48, 57, 130}) {
    for (Emotion e : kAllEmotions) {
      got.push_back(Digest(RenderFaceCrop(size, e, 0.8, 0.3, -0.2,
                                          Rgb{20, 200, 40},
                                          Rgb{90, 105, 125})));
    }
  }
  EXPECT_EQ(got, want);
}

/// FillConvexPolygon as it was written before spans went through a row
/// pointer: the same scanline edge walk, one bounds-checked PutRgb per
/// pixel. Kept as the oracle the span fill must match byte for byte.
void PerPixelConvexPolygon(ImageRgb* img, const std::vector<Vec2>& pts,
                           const Rgb& color) {
  if (pts.size() < 3) return;
  double ymin = pts[0].y, ymax = pts[0].y;
  for (const Vec2& p : pts) {
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
  const int y0 = std::max(0, static_cast<int>(std::ceil(ymin)));
  const int y1 =
      std::min(img->height() - 1, static_cast<int>(std::floor(ymax)));
  const size_t n = pts.size();
  for (int y = y0; y <= y1; ++y) {
    double xmin = 1e30, xmax = -1e30;
    for (size_t i = 0; i < n; ++i) {
      const Vec2& a = pts[i];
      const Vec2& b = pts[(i + 1) % n];
      if ((a.y <= y && b.y >= y) || (b.y <= y && a.y >= y)) {
        const double denom = b.y - a.y;
        const double x = (std::abs(denom) < 1e-12)
                             ? std::min(a.x, b.x)
                             : a.x + (y - a.y) / denom * (b.x - a.x);
        xmin = std::min(xmin, x);
        xmax = std::max(xmax, x);
        if (std::abs(denom) < 1e-12) xmax = std::max(xmax, std::max(a.x, b.x));
      }
    }
    if (xmin > xmax) continue;
    for (int x = static_cast<int>(std::ceil(xmin));
         x <= static_cast<int>(std::floor(xmax)); ++x) {
      PutRgb(img, x, y, color);
    }
  }
}

TEST(FillConvexPolygon, SpansMatchThePerPixelReference) {
  const Rgb color{150, 105, 60};
  const std::vector<std::pair<const char*, std::vector<Vec2>>> cases = {
      {"inside", {{10.2, 5.5}, {50.7, 8.1}, {44.0, 30.9}, {12.5, 27.3}}},
      {"clipped left", {{-20.5, 4.0}, {15.3, 2.2}, {9.0, 25.0}}},
      {"clipped right", {{50.0, 3.0}, {90.4, 10.0}, {55.5, 28.8}}},
      {"clipped top", {{20.0, -15.0}, {40.0, -3.0}, {30.0, 12.6}}},
      {"clipped bottom", {{5.0, 20.0}, {60.0, 25.0}, {30.0, 70.0}}},
      {"clipped on every border",
       {{-10.0, -10.0}, {80.0, -5.0}, {75.0, 50.0}, {-8.0, 45.0}}},
      {"horizontal edges", {{8.0, 6.0}, {40.0, 6.0}, {40.0, 20.0}, {8.0, 20.0}}},
      {"horizontal edge at a fractional row",
       {{3.5, 9.5}, {33.25, 9.5}, {20.0, 25.0}}},
      {"degenerate point", {{12.0, 12.0}, {12.0, 12.0}, {12.0, 12.0}}},
      {"degenerate line", {{2.0, 3.0}, {30.0, 17.0}, {16.0, 10.0}}},
      {"sliver narrower than a pixel", {{20.2, 2.0}, {20.7, 2.0}, {20.5, 28.0}}},
      {"off-screen left", {{-30.0, 5.0}, {-2.0, 6.0}, {-10.0, 20.0}}},
      {"off-screen below", {{5.0, 40.0}, {30.0, 41.0}, {20.0, 60.0}}},
      {"covers the image",
       {{-100.0, -100.0}, {200.0, -100.0}, {200.0, 200.0}, {-100.0, 200.0}}},
  };
  for (const auto& [what, pts] : cases) {
    SCOPED_TRACE(what);
    ImageRgb want(64, 32, 3);
    want.Fill(7);
    ImageRgb got = want;
    PerPixelConvexPolygon(&want, pts, color);
    FillConvexPolygon(&got, pts, color);
    EXPECT_TRUE(got == want);
  }
}

}  // namespace
}  // namespace dievent
