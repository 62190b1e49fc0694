// PIPE: per-stage throughput of the five-step DiEvent pipeline (paper
// Fig. 1) on the meeting prototype — rendering (acquisition stand-in),
// frame signatures (composition analysis), face detection + landmarks +
// gaze (feature extraction), identity, fusion + eye contact (multilayer
// analysis), and metadata storage.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "analysis/eye_contact.h"
#include "analysis/fusion.h"
#include "core/pipeline.h"
#include "metadata/repository.h"
#include "ml/face_recognizer.h"
#include "common/rng.h"
#include "perf_smoke.h"
#include "render/scene_renderer.h"
#include "sim/scenario.h"
#include "video/shot_detection.h"
#include "vision/face_analyzer.h"

namespace dievent {
namespace {

const DiningScene& Scene() {
  static const DiningScene* scene = new DiningScene(MakeMeetingScenario());
  return *scene;
}

/// Pre-rendered frames of camera 0/1/2/3 at a fixed instant.
const std::vector<ImageRgb>& Frames() {
  static const std::vector<ImageRgb>* frames = [] {
    auto* out = new std::vector<ImageRgb>();
    auto states = Scene().StateAt(10.0);
    for (int c = 0; c < 4; ++c)
      out->push_back(RenderView(Scene(), states, c, RenderOptions{}));
    return out;
  }();
  return *frames;
}

void BM_Stage1_RenderFrame(benchmark::State& state) {
  auto states = Scene().StateAt(10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RenderView(Scene(), states, 0, RenderOptions{}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Stage1_RenderFrame)->Unit(benchmark::kMillisecond);

void BM_Stage2_FrameSignature(benchmark::State& state) {
  ShotBoundaryDetector det;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.Signature(Frames()[0]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Stage2_FrameSignature)->Unit(benchmark::kMillisecond);

/// The parse signature (soft 8^3 histogram) over 40 meeting views: ten
/// instants of all four cameras, noise-free or with sigma = 6 sensor
/// noise. Flat rendered rows take the run-merging path; noisy rows take
/// the per-pixel loop.
void BM_Signature(benchmark::State& state, double noise_sigma) {
  std::vector<ImageRgb> views;
  RenderOptions opt;
  opt.noise_sigma = noise_sigma;
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    for (int c = 0; c < 4; ++c) {
      views.push_back(RenderViewAt(Scene(), 2.0 * i, c, opt, &rng));
    }
  }
  ShotBoundaryDetector det;
  for (auto _ : state) {
    for (const ImageRgb& view : views) {
      benchmark::DoNotOptimize(det.Signature(view));
    }
  }
  state.SetItemsProcessed(state.iterations() * views.size());
}
BENCHMARK_CAPTURE(BM_Signature, clean, 0.0)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Signature, noisy, 6.0)->Unit(benchmark::kMillisecond);

void BM_Stage3_FaceAnalysis(benchmark::State& state) {
  FaceAnalyzer analyzer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyzer.Analyze(Scene().rig().camera(0), 0, Frames()[0]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Stage3_FaceAnalysis)->Unit(benchmark::kMillisecond);

void BM_Stage3_Identity(benchmark::State& state) {
  FaceAnalyzer analyzer;
  FaceRecognizer recognizer;
  std::vector<ParticipantProfile> profiles;
  for (const auto& p : Scene().participants())
    profiles.push_back(p.profile);
  (void)recognizer.EnrollProfiles(profiles);
  auto obs = analyzer.Analyze(Scene().rig().camera(0), 0, Frames()[0]);
  for (auto _ : state) {
    for (const auto& o : obs) {
      benchmark::DoNotOptimize(
          recognizer.Recognize(Frames()[0], o.detection));
    }
  }
  state.SetItemsProcessed(state.iterations() * obs.size());
}
BENCHMARK(BM_Stage3_Identity)->Unit(benchmark::kMicrosecond);

void BM_Stage4_FusionAndEyeContact(benchmark::State& state) {
  FaceAnalyzer analyzer;
  FaceRecognizer recognizer;
  std::vector<ParticipantProfile> profiles;
  for (const auto& p : Scene().participants())
    profiles.push_back(p.profile);
  (void)recognizer.EnrollProfiles(profiles);
  std::vector<FaceObservation> all;
  for (int c = 0; c < 4; ++c) {
    for (FaceObservation& o :
         analyzer.Analyze(Scene().rig().camera(c), c, Frames()[c])) {
      IdentityMatch m = recognizer.Recognize(Frames()[c], o.detection);
      o.identity = m.id;
      all.push_back(std::move(o));
    }
  }
  EyeContactDetector ec;
  for (auto _ : state) {
    auto fused = FuseObservations(all, 4);
    benchmark::DoNotOptimize(ec.ComputeLookAt(ToGeometry(fused)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Stage4_FusionAndEyeContact)->Unit(benchmark::kMicrosecond);

void BM_Stage5_StoreLookAt(benchmark::State& state) {
  LookAtMatrix m(4);
  m.Set(0, 2, true);
  m.Set(2, 0, true);
  int frame = 0;
  MetadataRepository repo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        repo.AddLookAt(LookAtRecord::FromMatrix(frame, frame / 15.25, m)));
    ++frame;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Stage5_StoreLookAt)->Unit(benchmark::kMicrosecond);

/// Whole-pipeline frames/s in ground-truth and full-vision modes over a
/// 61-frame slice of the prototype.
void BM_EndToEnd(benchmark::State& state) {
  const bool vision = state.range(0) != 0;
  for (auto _ : state) {
    PipelineOptions opt;
    opt.mode =
        vision ? PipelineMode::kFullVision : PipelineMode::kGroundTruth;
    opt.frame_stride = 10;
    opt.analyze_emotions = false;
    opt.parse_video = false;
    MetadataRepository repo;
    auto report = DiEventPipeline(&Scene(), opt).Run(&repo);
    if (!report.ok()) state.SkipWithError("pipeline failed");
    benchmark::DoNotOptimize(repo.TotalRecords());
  }
  state.SetItemsProcessed(state.iterations() * 61);
  state.SetLabel(vision ? "full-vision" : "ground-truth");
}
BENCHMARK(BM_EndToEnd)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Thread scaling of the per-camera vision work (4 cameras).
void BM_FullVisionThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PipelineOptions opt;
    opt.mode = PipelineMode::kFullVision;
    opt.frame_stride = 20;
    opt.analyze_emotions = false;
    opt.parse_video = false;
    opt.num_threads = threads;
    MetadataRepository repo;
    auto report = DiEventPipeline(&Scene(), opt).Run(&repo);
    if (!report.ok()) state.SkipWithError("pipeline failed");
    benchmark::DoNotOptimize(repo.TotalRecords());
  }
  state.SetLabel(std::to_string(threads) + " thread(s)");
}
BENCHMARK(BM_FullVisionThreads)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

PipelineOptions ExecutorOptions(bool pipelined, bool noisy = false) {
  PipelineOptions opt;
  if (noisy) {
    opt.render.noise_sigma = 6.0;
    opt.noise_seed = 7;
  }
  opt.mode = PipelineMode::kFullVision;
  opt.frame_stride = 10;  // 61 frames
  opt.analyze_emotions = false;
  opt.parse_video = true;  // the signature stage rides the vision fan-out
  opt.num_threads = pipelined ? 4 : 1;
  opt.prefetch_depth = pipelined ? 4 : 0;
  return opt;
}

/// Sequential reference executor vs the pipelined streaming executor
/// (4 vision workers, prefetch depth 4) on the same 61-frame slice.
void BM_PipelineEndToEnd(benchmark::State& state) {
  const bool pipelined = state.range(0) != 0;
  int frames = 0;
  for (auto _ : state) {
    MetadataRepository repo;
    auto report =
        DiEventPipeline(&Scene(), ExecutorOptions(pipelined)).Run(&repo);
    if (!report.ok()) state.SkipWithError("pipeline failed");
    frames = report.value().frames_processed;
    benchmark::DoNotOptimize(repo.TotalRecords());
  }
  state.counters["fps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * frames,
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * frames);
  state.SetLabel(pipelined ? "pipelined" : "seq");
}
// Real time: the pipelined executor's work runs on pool workers, so a rate
// over the main thread's CPU time would overstate its fps many times over.
BENCHMARK(BM_PipelineEndToEnd)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- perf smoke ----------------------------------------------------------
// `bench_pipeline --perf_smoke=PATH` runs both executors once (best of
// two), writes PATH as JSON (fps, speedup, the sequential run's
// parse-signature cost on clean and on sigma = 6 frames, per-stage
// occupancy, core count), and exits
// nonzero when the pipelined executor falls below the hardware-aware
// throughput floor or the parse signature takes more than
// kSignatureShareCeiling of the sequential run's wall time. Wired up as
// the `perf-smoke` CMake target for CI.

/// Release build, 4-vCPU host: the signature takes 0.13-0.16 of a
/// sequential full-vision frame's wall time with run merging and the row
/// fills, 0.25-0.28 with the per-pixel renderer and kernel, and 0.75 with
/// the double-precision loop the fixed-point kernel replaced.
constexpr double kSignatureShareCeiling = 0.35;

struct SmokeRun {
  double wall_s = 0;
  double fps = 0;
  int frames = 0;
  StageTimings timings;
};

SmokeRun MeasureExecutor(bool pipelined, bool noisy = false) {
  SmokeRun best;
  for (int attempt = 0; attempt < 2; ++attempt) {
    MetadataRepository repo;
    auto start = std::chrono::steady_clock::now();  // lint: allow(steady-clock): measures real wall time
    auto report = DiEventPipeline(&Scene(), ExecutorOptions(pipelined, noisy))
                      .Run(&repo);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)  // lint: allow(steady-clock): measures real wall time
                      .count();
    if (!report.ok()) {
      std::fprintf(stderr, "perf_smoke: pipeline failed: %s\n",
                   report.status().ToString().c_str());
      std::exit(2);
    }
    if (best.wall_s == 0 || wall < best.wall_s) {
      best.wall_s = wall;
      best.frames = report.value().frames_processed;
      best.fps = best.frames / wall;
      best.timings = report.value().timings;
    }
  }
  return best;
}

int RunPerfSmoke(const std::string& path) {
  const SmokeRun seq = MeasureExecutor(false);
  const SmokeRun pipe = MeasureExecutor(true);
  // The same sequential run on sigma = 6 frames, where no row is flat:
  // recorded next to the clean cost, not gated (a real camera's frames
  // look like these, so a clean-only speed-up shows here as none).
  const SmokeRun noisy = MeasureExecutor(false, /*noisy=*/true);
  const double speedup = pipe.fps / seq.fps;
  const unsigned cores = std::thread::hardware_concurrency();
  // The pipelined executor can only trade latency for throughput when
  // there are cores to overlap on. On a multi-core host it must not be
  // slower than the sequential reference (1.8-2.2x measured on 4 cores,
  // where the cheap signature leaves less parallel work than before); on
  // a single core we only guard against pathological scheduling overhead.
  const double floor = cores >= 2 ? 1.0 : 0.8;
  // Parse-signature compute of the sequential run: per frame, and as a
  // share of its wall time (the inline executor bills it to `parsing`).
  const double signature_ms = seq.timings.parsing / seq.frames * 1e3;
  const double signature_share = seq.timings.parsing / seq.wall_s;
  const double noisy_signature_ms =
      noisy.timings.parsing / noisy.frames * 1e3;
  const bool pass =
      speedup >= floor && signature_share <= kSignatureShareCeiling;

  // Per-stage occupancy: stage seconds over the pipelined run's wall
  // time. Worker-stage seconds are summed across threads, so occupancy
  // above 1.0 means genuine overlap.
  auto occupancy = [&](double stage_s) { return stage_s / pipe.wall_s; };
  bench::JsonWriter json;
  json.Add("benchmark", "pipeline_executor_smoke")
      .Add("frames", seq.frames)
      .Add("hardware_concurrency", cores)
      .Add("sequential_fps", seq.fps)
      .Add("pipelined_fps", pipe.fps)
      .Add("speedup", speedup)
      .Add("throughput_floor", floor)
      .Add("sequential_signature_ms_per_frame", signature_ms)
      .Add("sequential_signature_share", signature_share)
      .Add("sequential_noisy_signature_ms_per_frame", noisy_signature_ms)
      .Add("signature_share_ceiling", kSignatureShareCeiling)
      .Add("pass", pass)
      .Begin("pipelined_stage_occupancy")
      .Add("acquisition", occupancy(pipe.timings.acquisition))
      .Add("detection", occupancy(pipe.timings.detection))
      .Add("eye_contact", occupancy(pipe.timings.eye_contact))
      .Add("parsing", occupancy(pipe.timings.parsing))
      .Add("storage", occupancy(pipe.timings.storage))
      .End()
      .Add("note",
           "floor is 1.0x on multi-core hosts (1.8-2.2x measured on 4 "
           "cores), 0.8x on a single core where overlap cannot help "
           "CPU-bound stages; the sequential signature share must stay at "
           "or below its ceiling");
  if (!json.WriteFile(path)) return 2;
  std::printf(
      "perf_smoke: seq %.2f fps, pipelined %.2f fps (%.2fx, floor %.1fx "
      "on %u cores); seq signature %.2f ms/frame = %.2f of wall (ceiling "
      "%.2f), %.2f ms/frame at sigma 6 -> %s\n",
      seq.fps, pipe.fps, speedup, floor, cores, signature_ms,
      signature_share, kSignatureShareCeiling, noisy_signature_ms,
      pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace dievent

int main(int argc, char** argv) {
  return dievent::bench::BenchMain(argc, argv, dievent::RunPerfSmoke);
}
