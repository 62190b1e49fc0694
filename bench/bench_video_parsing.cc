// PARSE: video composition analysis quality and throughput (paper
// Section II-B / Fig. 3).
//
// A synthetic multi-shot recording with scripted hard cuts and lighting
// ramps is parsed; the bench reports shot-boundary precision/recall for
// the metric/threshold ablations, the recovered hierarchy, and per-frame
// signature throughput.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.h"
#include "perf_smoke.h"
#include "sim/scenario.h"
#include "video/parser.h"
#include "video/synthetic_source.h"

namespace dievent {
namespace {

struct ParsingWorkload {
  std::vector<Histogram> signatures;       // soft-binned (default)
  std::vector<Histogram> signatures_hard;  // hard-binned ablation
  std::vector<int> true_cuts;  // first frame of each new shot
  double fps = 0;
};

/// Builds a 1220-frame meeting recording with 5 scripted hard cuts and
/// one gradual illumination ramp (which must NOT count as a cut).
const ParsingWorkload& Workload() {
  static const ParsingWorkload* w = [] {
    auto* out = new ParsingWorkload();
    Rng rng(99);
    DiningScene scene = MakeRandomScenario(4, 1220, 15.25, &rng);
    out->fps = scene.fps();
    RenderScripts scripts;
    const Rgb backgrounds[] = {{90, 105, 125}, {40, 45, 55},
                               {150, 160, 170}, {70, 90, 70},
                               {120, 80, 110},  {90, 105, 125}};
    const int cut_frames[] = {0, 200, 430, 640, 870, 1050};
    for (int i = 0; i < 6; ++i) {
      int begin = cut_frames[i];
      int end = i + 1 < 6 ? cut_frames[i + 1] : 1220;
      (void)scripts.background.Add(begin / 15.25, end / 15.25,
                                   backgrounds[i]);
      if (i > 0) out->true_cuts.push_back(begin);
    }
    // Gradual dimming between frames 300 and 360 (no cut).
    for (int f = 300; f < 360; f += 4) {
      (void)scripts.illumination.Add(f / 15.25, (f + 4) / 15.25,
                                     1.0 - 0.3 * (f - 300) / 60.0);
    }
    (void)scripts.illumination.Add(360 / 15.25, 1220 / 15.25, 0.7);

    SyntheticVideoSource src(&scene, 0, RenderOptions{}, scripts,
                             /*noise_seed=*/5);
    ShotBoundaryDetector soft_maker;
    ShotDetectorOptions hard_opt;
    hard_opt.soft_binning = false;
    ShotBoundaryDetector hard_maker(hard_opt);
    for (int f = 0; f < src.NumFrames(); ++f) {
      ImageRgb frame = src.GetFrame(f).value().image;
      out->signatures.push_back(soft_maker.Signature(frame));
      out->signatures_hard.push_back(hard_maker.Signature(frame));
    }
    return out;
  }();
  return *w;
}

void EvaluateDetector(const char* label, const ShotDetectorOptions& opt) {
  const ParsingWorkload& w = Workload();
  ShotBoundaryDetector det(opt);
  auto cuts = det.DetectFromHistograms(
      opt.soft_binning ? w.signatures : w.signatures_hard);
  int tp = 0;
  std::vector<bool> matched(w.true_cuts.size(), false);
  for (const ShotBoundary& c : cuts) {
    for (size_t i = 0; i < w.true_cuts.size(); ++i) {
      if (!matched[i] && std::abs(c.frame - w.true_cuts[i]) <= 2) {
        matched[i] = true;
        ++tp;
        break;
      }
    }
  }
  double precision =
      cuts.empty() ? 1.0 : static_cast<double>(tp) / cuts.size();
  double recall = static_cast<double>(tp) / w.true_cuts.size();
  std::printf("%-28s cuts=%2zu  precision=%.3f  recall=%.3f\n", label,
              cuts.size(), precision, recall);
}

void QualityReport() {
  std::printf(
      "\n==== shot-boundary detection (5 true cuts, 1 lighting ramp, "
      "1220 frames) ====\n");
  ShotDetectorOptions chi_adaptive;  // defaults
  EvaluateDetector("chi2 + adaptive (default)", chi_adaptive);

  ShotDetectorOptions l1_adaptive;
  l1_adaptive.metric = HistogramMetric::kL1;
  EvaluateDetector("L1 + adaptive", l1_adaptive);

  ShotDetectorOptions chi_fixed;
  chi_fixed.threshold_mode = ThresholdMode::kFixed;
  chi_fixed.fixed_threshold = 0.25;
  EvaluateDetector("chi2 + fixed 0.25", chi_fixed);

  ShotDetectorOptions chi_fixed_low;
  chi_fixed_low.threshold_mode = ThresholdMode::kFixed;
  chi_fixed_low.fixed_threshold = 0.05;
  EvaluateDetector("chi2 + fixed 0.05 (twitchy)", chi_fixed_low);

  ShotDetectorOptions hard_binned;
  hard_binned.soft_binning = false;
  EvaluateDetector("chi2 + adaptive, hard bins", hard_binned);

  std::printf("\n==== recovered hierarchy (default parser) ====\n");
  VideoParser parser;
  VideoStructure vs =
      parser.ParseFromHistograms(Workload().signatures, Workload().fps);
  std::printf("%s", vs.ToString().c_str());
}

void BM_FrameSignature(benchmark::State& state) {
  Rng rng(1);
  DiningScene scene = MakeRandomScenario(4, 10, 15.25, &rng);
  ImageRgb frame = RenderViewAt(scene, 0.1, 0, RenderOptions{});
  ShotBoundaryDetector det;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.Signature(frame));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameSignature)->Unit(benchmark::kMillisecond);

void BM_ParseFromSignatures(benchmark::State& state) {
  const ParsingWorkload& w = Workload();
  VideoParser parser;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parser.ParseFromHistograms(w.signatures, w.fps));
  }
  state.SetItemsProcessed(state.iterations() * w.signatures.size());
}
BENCHMARK(BM_ParseFromSignatures)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dievent

int main(int argc, char** argv) {
  return dievent::bench::BenchMain(argc, argv, nullptr, dievent::QualityReport);
}
