// EMO: emotion recognition (paper Section II-C, Fig. 5) — training cost,
// per-class accuracy, the confusion matrix, the LBP-grid/hidden-width
// ablation, and the overall-emotion (OH) trace of the dinner scenario
// against its script.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "analysis/overall_emotion.h"
#include "ml/emotion_recognizer.h"
#include "perf_smoke.h"
#include "render/face_renderer.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

const EmotionRecognizer& ProductionRecognizer() {
  static const EmotionRecognizer* rec = [] {
    Rng rng(42);
    auto r = EmotionRecognizer::Train(EmotionRecognizerOptions{}, &rng);
    return new EmotionRecognizer(r.TakeValue());
  }();
  return *rec;
}

void AccuracyReport() {
  std::printf("\n==== emotion recognition (LBP + NN, Section II-C) ====\n");
  Rng rng(7);

  std::printf("\nablation: LBP grid x hidden units -> eval accuracy "
              "(7-way, augmented)\n");
  std::printf("%-8s %-8s %-10s %-12s %-10s\n", "grid", "hidden",
              "features", "train(s)", "accuracy");
  for (int grid : {3, 6, 8}) {
    for (int hidden : {16, 48}) {
      EmotionRecognizerOptions opt;
      opt.lbp_grid = grid;
      opt.hidden_units = hidden;
      opt.samples_per_class = 120;
      opt.train.epochs = 30;
      Rng train_rng(11);
      auto t0 = std::chrono::steady_clock::now();  // lint: allow(steady-clock): measures real wall time
      auto rec = EmotionRecognizer::Train(opt, &train_rng);
      double secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)  // lint: allow(steady-clock): measures real wall time
                        .count();
      if (!rec.ok()) {
        std::printf("%-8d %-8d training failed: %s\n", grid, hidden,
                    rec.status().ToString().c_str());
        continue;
      }
      double acc = rec.value().EvaluateOnRendered(30, &rng);
      std::printf("%-8d %-8d %-10d %-12.1f %-10.3f\n", grid, hidden,
                  opt.FeatureSize(), secs, acc);
    }
  }

  std::printf("\nconfusion matrix (production config, row = truth):\n");
  auto confusion = ProductionRecognizer().ConfusionOnRendered(40, &rng);
  std::printf("%-10s", "");
  for (Emotion e : kAllEmotions)
    std::printf("%-10s", EmotionName(e).data());
  std::printf("\n");
  for (int t = 0; t < kNumEmotions; ++t) {
    std::printf("%-10s", EmotionName(static_cast<Emotion>(t)).data());
    for (int p = 0; p < kNumEmotions; ++p)
      std::printf("%-10.2f", confusion[t][p]);
    std::printf("\n");
  }
}

void OverallEmotionTrace() {
  std::printf(
      "\n==== overall-emotion (OH) trace — dinner scenario vs script "
      "====\n");
  // The dinner script: neutral appetizer, happy main course, mixed
  // dessert. The OH trace (on scripted emotions) must follow that arc.
  DiningScene dinner = MakeDinnerScenario(6, 60.0, 10.0);
  OverallEmotionOptions opt;
  opt.smoothing_alpha = 0.2;
  OverallEmotionEstimator est(opt);
  for (int f = 0; f < dinner.num_frames(); ++f) {
    double t = dinner.TimeOfFrame(f);
    auto states = dinner.StateAt(t);
    std::vector<EmotionObservation> obs;
    for (int i = 0; i < dinner.NumParticipants(); ++i) {
      EmotionObservation o;
      o.participant = i;
      o.emotion = states[i].emotion;
      o.confidence = 1.0;
      obs.push_back(o);
    }
    est.Update(f, t, obs);
  }
  std::printf("%-12s %-14s %-12s\n", "t(s)", "OH(happy frac)",
              "mean valence");
  for (int sec = 0; sec < 60; sec += 6) {
    const OverallEmotion& oe = est.timeline()[sec * 10];
    std::printf("%-12d %-14.2f %-12.2f\n", sec, oe.overall_happiness,
                oe.mean_valence);
  }
  std::printf("event mean happiness: %.3f, mean valence: %.3f\n",
              est.MeanHappiness(), est.MeanValence());
  std::printf(
      "(expected arc: ~0 during appetizer, ~1 during the main course, "
      "mixed dessert)\n");
}

void BM_TrainProductionConfig(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(1);
    EmotionRecognizerOptions opt;
    opt.samples_per_class = 60;  // quarter-size training for the timer
    opt.train.epochs = 20;
    auto rec = EmotionRecognizer::Train(opt, &rng);
    if (!rec.ok()) state.SkipWithError("training failed");
    benchmark::DoNotOptimize(rec);
  }
}
BENCHMARK(BM_TrainProductionConfig)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_RecognizeCrop(benchmark::State& state) {
  const EmotionRecognizer& rec = ProductionRecognizer();
  ImageRgb crop = RenderFaceCrop(48, Emotion::kHappy, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec.Recognize(crop));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecognizeCrop)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dievent

int main(int argc, char** argv) {
  return dievent::bench::BenchMain(argc, argv, nullptr, [] {
    dievent::AccuracyReport();
    dievent::OverallEmotionTrace();
  });
}
