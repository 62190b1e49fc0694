// EC-GEO: eye-contact geometry benchmarks and design-choice ablations
// (paper Fig. 6 / Eq. 1-5).
//
// Part 1 (google-benchmark): the cost of one ray-sphere test, one
// transform chain (Eq. 2), and one full n x n look-at matrix as n grows
// (the paper's n(n-1) procedure).
//
// Part 2 (printed sweep): EC detection precision/recall as a function of
// synthetic gaze noise (degrees) for several head-sphere radii r — the
// paper's implicit accuracy knob in Eq. 3.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/eye_contact.h"
#include "common/rng.h"
#include "geometry/ray.h"
#include "perf_smoke.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

void BM_RaySphereTest(benchmark::State& state) {
  Ray gaze{{0, 0, 1.1}, {0.9, 0.43, 0.02}};
  Sphere head{{2, 1, 1.15}, 0.12};
  for (auto _ : state) {
    benchmark::DoNotOptimize(LooksAt(gaze, head));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RaySphereTest);

void BM_TransformChainEq2(benchmark::State& state) {
  // 1V = 1T2 * 2T4 * 4V: two pose compositions + one direction transform.
  DiningScene scene = MakeMeetingScenario();
  Pose t12 = scene.rig().CameraFromCamera(0, 1);
  Pose t24 = scene.rig().camera(1).camera_from_world() *
             scene.StateAt(10.0)[1].world_from_head;
  Vec3 v{0.1, 0.2, 0.97};
  for (auto _ : state) {
    benchmark::DoNotOptimize((t12 * t24).TransformDirection(v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransformChainEq2);

void BM_LookAtMatrixN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  DiningScene scene = MakeRandomScenario(n, 10, 10.0, &rng);
  auto states = scene.StateAt(0.5);
  std::vector<ParticipantGeometry> people(n);
  for (int i = 0; i < n; ++i) {
    people[i].head_position = states[i].head_position;
    people[i].gaze_direction = states[i].gaze_direction;
  }
  EyeContactDetector det;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.ComputeLookAt(people));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n) * (n - 1));
  state.SetLabel("pairs=" + std::to_string(n * (n - 1)));
}
BENCHMARK(BM_LookAtMatrixN)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

/// Printed ablation: gaze noise vs EC accuracy for several head radii.
void NoiseSweep() {
  std::printf(
      "\n==== EC accuracy vs gaze noise (meeting scenario, 122 frames) "
      "====\n");
  std::printf("%-12s %-10s %-10s %-10s %-10s\n", "noise(deg)", "r(m)",
              "precision", "recall", "cell-acc");
  DiningScene scene = MakeMeetingScenario();
  for (double radius : {0.08, 0.12, 0.20, 0.30}) {
    for (double noise_deg : {0.0, 2.0, 5.0, 10.0, 15.0}) {
      Rng rng(1234);
      long long tp = 0, fp = 0, fn = 0, agree = 0, total = 0;
      EyeContactOptions opt;
      opt.head_radius = radius;
      EyeContactDetector det(opt);
      for (int f = 0; f < scene.num_frames(); f += 5) {
        double t = scene.TimeOfFrame(f);
        auto states = scene.StateAt(t);
        auto gt = scene.GroundTruthLookAt(t);
        std::vector<ParticipantGeometry> noisy(states.size());
        for (size_t i = 0; i < states.size(); ++i) {
          noisy[i].head_position = states[i].head_position;
          // Perturb gaze by a random rotation of ~noise_deg.
          Vec3 g = states[i].gaze_direction;
          Vec3 axis{rng.NextGaussian(), rng.NextGaussian(),
                    rng.NextGaussian()};
          Quaternion q = Quaternion::FromAxisAngle(
              axis, DegToRad(rng.Gaussian(0.0, noise_deg)));
          noisy[i].gaze_direction = q.Rotate(g);
        }
        LookAtMatrix m = det.ComputeLookAt(noisy);
        for (size_t x = 0; x < states.size(); ++x) {
          for (size_t y = 0; y < states.size(); ++y) {
            if (x == y) continue;
            bool est = m.At(static_cast<int>(x), static_cast<int>(y));
            bool truth = gt[x][y];
            ++total;
            if (est == truth) ++agree;
            if (est && truth) ++tp;
            if (est && !truth) ++fp;
            if (!est && truth) ++fn;
          }
        }
      }
      double precision = tp + fp > 0 ? static_cast<double>(tp) / (tp + fp)
                                     : 1.0;
      double recall =
          tp + fn > 0 ? static_cast<double>(tp) / (tp + fn) : 1.0;
      std::printf("%-12.1f %-10.2f %-10.3f %-10.3f %-10.3f\n", noise_deg,
                  radius, precision, recall,
                  static_cast<double>(agree) / total);
    }
  }
  std::printf(
      "(larger r trades precision for recall under noise — the Eq. 3 "
      "design knob)\n");
}

}  // namespace
}  // namespace dievent

int main(int argc, char** argv) {
  return dievent::bench::BenchMain(argc, argv, nullptr, dievent::NoiseSweep);
}
