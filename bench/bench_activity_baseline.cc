// BASELINE: dining-activity segmentation — DiEvent's gaze-layer analysis
// vs the HMM approach of the paper's closest prior work (Gao et al.,
// "Dining activity analysis using a hidden Markov model", ICPR 2004,
// ref. [16]).
//
// Workload: a scripted dinner cycling through eating / discussion /
// presentation phases. Both methods see the same per-frame look-at
// matrices (from ground-truth geometry, so the comparison isolates the
// segmentation method):
//   - HMM baseline: 3-state discrete HMM over the 12-symbol gaze
//     alphabet, trained unsupervised with Baum-Welch, decoded with
//     Viterbi, states mapped to phases by majority (cluster accuracy);
//   - DiEvent: direct rule classification from the multilayer gaze
//     statistics, with and without temporal smoothing.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "analysis/activity.h"
#include "ml/hmm.h"
#include "perf_smoke.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

struct ActivityWorkload {
  PhasedScene phased;
  std::vector<LookAtMatrix> lookat;  // per frame, ground-truth geometry
  std::vector<int> symbols;
};

const ActivityWorkload& Workload() {
  static const ActivityWorkload* w = [] {
    auto* out = new ActivityWorkload();
    Rng rng(2024);
    std::vector<std::pair<DiningPhase, double>> phases = {
        {DiningPhase::kEating, 25},       {DiningPhase::kDiscussion, 20},
        {DiningPhase::kEating, 15},       {DiningPhase::kPresentation, 20},
        {DiningPhase::kDiscussion, 25},   {DiningPhase::kEating, 15},
        {DiningPhase::kPresentation, 15}, {DiningPhase::kDiscussion, 15},
    };
    out->phased = MakePhasedDinnerScenario(6, phases, 10.0, &rng);
    const DiningScene& scene = out->phased.scene;
    for (int f = 0; f < scene.num_frames(); ++f) {
      auto gt = scene.GroundTruthLookAt(scene.TimeOfFrame(f));
      LookAtMatrix m(static_cast<int>(gt.size()));
      for (size_t x = 0; x < gt.size(); ++x)
        for (size_t y = 0; y < gt.size(); ++y)
          m.Set(static_cast<int>(x), static_cast<int>(y), gt[x][y]);
      out->lookat.push_back(m);
      out->symbols.push_back(SymbolizeLookAt(m));
    }
    return out;
  }();
  return *w;
}

void ComparisonReport() {
  const ActivityWorkload& w = Workload();
  const std::vector<DiningPhase>& truth = w.phased.frame_phase;
  std::printf(
      "\n==== dining-activity segmentation: DiEvent vs HMM baseline "
      "(%zu frames, %d-symbol alphabet) ====\n",
      truth.size(), kActivitySymbols);

  // DiEvent rule-based, raw and smoothed.
  std::vector<DiningPhase> rule;
  rule.reserve(w.lookat.size());
  for (const LookAtMatrix& m : w.lookat) {
    rule.push_back(ClassifyPhaseRule(m));
  }
  double rule_acc = PhaseAccuracy(rule, truth);
  std::vector<DiningPhase> smoothed = SmoothPhases(rule, 10);
  double smooth_acc = PhaseAccuracy(smoothed, truth);

  // HMM baseline: best of a few random restarts (standard practice).
  double hmm_acc = 0.0;
  double train_secs = 0.0;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    auto hmm = DiscreteHmm::CreateRandom(kNumDiningPhases,
                                         kActivitySymbols, &rng);
    if (!hmm.ok()) continue;
    auto t0 = std::chrono::steady_clock::now();  // lint: allow(steady-clock): measures real wall time
    auto history = hmm.value().BaumWelch({w.symbols}, 60);
    train_secs += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)  // lint: allow(steady-clock): measures real wall time
                      .count();
    if (!history.ok()) continue;
    auto states = hmm.value().Viterbi(w.symbols);
    if (!states.ok()) continue;
    std::vector<DiningPhase> decoded =
        MapStatesToPhases(states.value(), truth, kNumDiningPhases);
    hmm_acc = std::max(hmm_acc, PhaseAccuracy(decoded, truth));
  }

  std::printf("%-44s accuracy\n", "method");
  std::printf("%-44s %.3f\n", "HMM baseline (Gao et al. [16], 3 states, "
                              "best of 3 restarts)",
              hmm_acc);
  std::printf("%-44s %.3f\n", "DiEvent rule (multilayer gaze stats)",
              rule_acc);
  std::printf("%-44s %.3f\n",
              "DiEvent rule + 2 s majority smoothing", smooth_acc);
  std::printf("HMM training time (3 restarts): %.2f s\n", train_secs);

  // Per-phase recall for the winning DiEvent configuration.
  std::printf("\nper-phase recall (DiEvent smoothed):\n");
  for (int p = 0; p < kNumDiningPhases; ++p) {
    long long tp = 0, total = 0;
    for (size_t i = 0; i < truth.size(); ++i) {
      if (static_cast<int>(truth[i]) != p) continue;
      ++total;
      if (smoothed[i] == truth[i]) ++tp;
    }
    std::printf("  %-14s %.3f (%lld frames)\n",
                DiningPhaseName(static_cast<DiningPhase>(p)).data(),
                total ? static_cast<double>(tp) / total : 0.0, total);
  }
}

void BM_HmmBaumWelchIteration(benchmark::State& state) {
  const ActivityWorkload& w = Workload();
  Rng rng(7);
  auto hmm =
      DiscreteHmm::CreateRandom(kNumDiningPhases, kActivitySymbols, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmm.value().BaumWelch({w.symbols}, 1, 0.0));
  }
  state.SetItemsProcessed(state.iterations() * w.symbols.size());
}
BENCHMARK(BM_HmmBaumWelchIteration)->Unit(benchmark::kMillisecond);

void BM_HmmViterbi(benchmark::State& state) {
  const ActivityWorkload& w = Workload();
  Rng rng(8);
  auto hmm =
      DiscreteHmm::CreateRandom(kNumDiningPhases, kActivitySymbols, &rng);
  (void)hmm.value().BaumWelch({w.symbols}, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmm.value().Viterbi(w.symbols));
  }
  state.SetItemsProcessed(state.iterations() * w.symbols.size());
}
BENCHMARK(BM_HmmViterbi)->Unit(benchmark::kMicrosecond);

void BM_RuleClassifier(benchmark::State& state) {
  const ActivityWorkload& w = Workload();
  for (auto _ : state) {
    for (const LookAtMatrix& m : w.lookat) {
      benchmark::DoNotOptimize(ClassifyPhaseRule(m));
    }
  }
  state.SetItemsProcessed(state.iterations() * w.lookat.size());
}
BENCHMARK(BM_RuleClassifier)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dievent

int main(int argc, char** argv) {
  return dievent::bench::BenchMain(argc, argv, nullptr, dievent::ComparisonReport);
}
