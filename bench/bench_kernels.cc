// KERNELS: scalar-vs-SIMD microbenchmarks for the vision/ML hot-path
// kernels in src/common/simd.h — blocked matvec, row-wise LBP codes, the
// detector's dual color gate, the mask occupancy reduce, and the emotion
// net's two training kernels (batched weight gradient, Adam step).
//
// `bench_kernels --perf_smoke=PATH` verifies the kernels' bit-identical
// equivalence contract (simd::SelfCheck), measures each kernel scalar vs
// dispatched on the calling thread's CPU clock (best of 5, the two paths'
// runs interleaved), gates on a
// per-kernel speedup floor when a vectorized backend is compiled in, and
// writes PATH as JSON. Wired into the `perf-smoke` CMake target;
// BENCH_kernels.json at the repo root is the committed snapshot —
// per-kernel history makes a pipeline perf regression attributable to a
// specific loop.

#include <benchmark/benchmark.h>

#include <time.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/simd.h"
#include "perf_smoke.h"

namespace dievent {
namespace {

// Deterministic pseudo-random fill; the same stream every run so the
// committed snapshots are comparable across machines and PRs.
struct XorShift {
  uint32_t s = 0x243F6A88u;
  uint32_t Next() {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return s;
  }
};

constexpr int kFrameW = 640, kFrameH = 480;

// Emotion-net first-layer shape: 6x6 LBP grid x 59 bins -> 48 hidden.
constexpr int kMatVecIn = 2124, kMatVecOut = 48;
// Training: a default minibatch through that layer, and one Adam step
// over every parameter of the {2124, 48, 7} emotion net.
constexpr int kTrainBatch = 16;
constexpr size_t kAdamParams =
    static_cast<size_t>(kMatVecIn + 1) * kMatVecOut + (kMatVecOut + 1) * 7;

struct KernelData {
  std::vector<float> w, bias, x, y;
  std::vector<float> batch_in, batch_delta, grad;
  std::vector<const float*> batch_rows;
  std::vector<float> adam_grad, adam_w, adam_m, adam_v;
  std::vector<uint8_t> gray, codes, rgb, mask_a, mask_b, sparse, occ;

  KernelData() {
    XorShift rng;
    w.resize(static_cast<size_t>(kMatVecIn) * kMatVecOut);
    bias.resize(kMatVecOut);
    x.resize(kMatVecIn);
    y.resize(kMatVecOut);
    for (auto& v : w) {
      v = static_cast<float>(static_cast<int>(rng.Next() % 2001) - 1000) /
          1000.0f;
    }
    for (auto& v : bias) {
      v = static_cast<float>(static_cast<int>(rng.Next() % 201) - 100) /
          100.0f;
    }
    for (auto& v : x) v = static_cast<float>(rng.Next() % 1000) / 1000.0f;

    // LBP-histogram-like inputs: ~64% exact zeros, like the emotion
    // net's layer-0 inputs.
    batch_in.resize(static_cast<size_t>(kTrainBatch) * kMatVecIn);
    for (auto& v : batch_in) {
      v = rng.Next() % 100 < 64
              ? 0.0f
              : static_cast<float>(rng.Next() % 1000) / 4000.0f;
    }
    batch_rows.resize(kTrainBatch);
    for (int b = 0; b < kTrainBatch; ++b) {
      batch_rows[b] = batch_in.data() + static_cast<size_t>(b) * kMatVecIn;
    }
    batch_delta.resize(static_cast<size_t>(kTrainBatch) * kMatVecOut);
    for (auto& v : batch_delta) {
      v = static_cast<float>(static_cast<int>(rng.Next() % 2001) - 1000) /
          50000.0f;
    }
    grad.resize(static_cast<size_t>(kMatVecIn) * kMatVecOut);

    adam_grad.resize(kAdamParams);
    adam_w.resize(kAdamParams);
    adam_m.assign(kAdamParams, 0.0f);
    adam_v.assign(kAdamParams, 0.0f);
    for (auto& v : adam_grad) {
      v = static_cast<float>(static_cast<int>(rng.Next() % 2001) - 1000) /
          10000.0f;
    }
    for (auto& v : adam_w) {
      v = static_cast<float>(static_cast<int>(rng.Next() % 2001) - 1000) /
          1000.0f;
    }

    const size_t n = static_cast<size_t>(kFrameW) * kFrameH;
    gray.resize(n);
    codes.resize(n);
    for (auto& v : gray) v = static_cast<uint8_t>(rng.Next());

    rgb.resize(n * 3);
    mask_a.resize(n);
    mask_b.resize(n);
    // Mid-range pixels so the gates see realistic hit rates.
    for (auto& v : rgb) v = static_cast<uint8_t>(rng.Next() % 128 + 64);

    // Sparse mask (~2% density in a few blobs), the detector's typical
    // input for the occupancy reduce.
    sparse.assign(n, 0);
    for (int blob = 0; blob < 6; ++blob) {
      const int cx = static_cast<int>(rng.Next() % kFrameW);
      const int cy = static_cast<int>(rng.Next() % kFrameH);
      for (int dy = -20; dy <= 20; ++dy) {
        for (int dx = -20; dx <= 20; ++dx) {
          const int px = cx + dx, py = cy + dy;
          if (px < 0 || px >= kFrameW || py < 0 || py >= kFrameH) continue;
          sparse[static_cast<size_t>(py) * kFrameW + px] = 1;
        }
      }
    }
    occ.resize(simd::OccupancyEntries(n));
  }
};

KernelData& Data() {
  static KernelData* data = new KernelData();
  return *data;
}

// One batch of work per kernel, sized so a measurement lasts ~tens of ms.
void RunMatVec(bool simd_path) {
  KernelData& d = Data();
  for (int r = 0; r < 64; ++r) {
    if (simd_path) {
      simd::MatVec(d.w.data(), d.bias.data(), d.x.data(), kMatVecIn,
                   kMatVecOut, d.y.data());
    } else {
      simd::MatVecScalar(d.w.data(), d.bias.data(), d.x.data(), kMatVecIn,
                         kMatVecOut, d.y.data());
    }
    benchmark::DoNotOptimize(d.y.data());
  }
}

void RunLbp(bool simd_path) {
  KernelData& d = Data();
  for (int r = 0; r < 4; ++r) {
    if (simd_path) {
      simd::LbpCodes(d.gray.data(), kFrameW, kFrameH, d.codes.data());
    } else {
      simd::LbpCodesScalar(d.gray.data(), kFrameW, kFrameH, d.codes.data());
    }
    benchmark::DoNotOptimize(d.codes.data());
  }
}

void RunColorMasks(bool simd_path) {
  KernelData& d = Data();
  const size_t n = static_cast<size_t>(kFrameW) * kFrameH;
  for (int r = 0; r < 4; ++r) {
    if (simd_path) {
      simd::ColorMasks2(d.rgb.data(), n, 224, 172, 150, 32, 40, 30, 22, 26,
                        d.mask_a.data(), d.mask_b.data());
    } else {
      simd::ColorMasks2Scalar(d.rgb.data(), n, 224, 172, 150, 32, 40, 30,
                              22, 26, d.mask_a.data(), d.mask_b.data());
    }
    benchmark::DoNotOptimize(d.mask_a.data());
  }
}

void RunOccupancy(bool simd_path) {
  KernelData& d = Data();
  const size_t n = static_cast<size_t>(kFrameW) * kFrameH;
  for (int r = 0; r < 64; ++r) {
    if (simd_path) {
      simd::OccupancyMap(d.sparse.data(), n, d.occ.data());
    } else {
      simd::OccupancyMapScalar(d.sparse.data(), n, d.occ.data());
    }
    benchmark::DoNotOptimize(d.occ.data());
  }
}

void RunBatchGradient(bool simd_path) {
  KernelData& d = Data();
  for (int r = 0; r < 16; ++r) {
    if (simd_path) {
      simd::BatchGradient(d.batch_rows.data(), d.batch_delta.data(),
                          kTrainBatch, kMatVecIn, kMatVecOut, d.grad.data());
    } else {
      simd::BatchGradientScalar(d.batch_rows.data(), d.batch_delta.data(),
                                kTrainBatch, kMatVecIn, kMatVecOut,
                                d.grad.data());
    }
    benchmark::DoNotOptimize(d.grad.data());
  }
}

void RunAdamStep(bool simd_path) {
  KernelData& d = Data();
  simd::AdamStepParams p;
  p.grad_scale = 1.0f / kTrainBatch;
  p.decay = true;
  p.l2 = 1e-4f;
  p.b1 = 0.9f;
  p.b2 = 0.999f;
  p.alpha = 2e-3f;
  p.eps = 1e-8f;
  for (int r = 0; r < 16; ++r) {
    if (simd_path) {
      simd::AdamStep(p, d.adam_grad.data(), kAdamParams, d.adam_w.data(),
                     d.adam_m.data(), d.adam_v.data());
    } else {
      simd::AdamStepScalar(p, d.adam_grad.data(), kAdamParams,
                           d.adam_w.data(), d.adam_m.data(),
                           d.adam_v.data());
    }
    benchmark::DoNotOptimize(d.adam_w.data());
  }
}

struct Kernel {
  const char* name;
  void (*run)(bool simd_path);
  // Minimum dispatched-vs-scalar speedup gated in --perf_smoke when a
  // vectorized backend is compiled in. Compute-bound kernels measure
  // >= 2x on commodity x86; 1.5 leaves margin for noisy shared CI
  // runners. The two training kernels measure ~2.2-2.7x (batch_gradient)
  // and ~4x (adam_step, whose scalar sqrt and divide do not
  // auto-vectorize) on a 4-vCPU x86 host.
  double floor;
};

constexpr Kernel kKernels[] = {
    {"matvec", RunMatVec, 1.5},
    {"lbp_codes", RunLbp, 1.5},
    {"color_masks", RunColorMasks, 1.5},
    {"occupancy_map", RunOccupancy, 1.5},
    {"batch_gradient", RunBatchGradient, 1.5},
    {"adam_step", RunAdamStep, 1.5},
};

// --- google-benchmark registrations -------------------------------------

void BM_Kernel(benchmark::State& state, const Kernel& kernel,
               bool simd_path) {
  for (auto _ : state) kernel.run(simd_path);
  state.SetLabel(simd_path ? simd::ActiveBackend() : "scalar");
}

// --- perf smoke ----------------------------------------------------------

/// CPU seconds this thread has consumed. The kernels run on the calling
/// thread, so its CPU clock times one batch exactly, and unlike a wall
/// clock it does not count the time a shared host spends running other
/// tenants (steal) or other processes.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double TimeOneBatch(const Kernel& kernel, bool simd_path) {
  const double start = ThreadCpuSeconds();
  kernel.run(simd_path);
  return ThreadCpuSeconds() - start;
}

struct BatchSeconds {
  double scalar = 0, simd = 0;
};

/// Best of kRuns batches per path, with the scalar and SIMD runs
/// interleaved so a burst of host noise the CPU clock still sees (a
/// frequency change, cache pollution) lands on both paths instead of
/// skewing one side of the ratio.
BatchSeconds MeasureBatchSeconds(const Kernel& kernel) {
  constexpr int kRuns = 5;
  // Warm-up pass (page in buffers, settle frequency).
  kernel.run(false);
  kernel.run(true);
  BatchSeconds best;
  for (int attempt = 0; attempt < kRuns; ++attempt) {
    const double scalar = TimeOneBatch(kernel, false);
    const double simd = TimeOneBatch(kernel, true);
    if (attempt == 0 || scalar < best.scalar) best.scalar = scalar;
    if (attempt == 0 || simd < best.simd) best.simd = simd;
  }
  return best;
}

int RunPerfSmoke(const std::string& path) {
  // The speedup numbers mean nothing if the vectorized kernels drifted
  // from their scalar references, so equivalence is checked first.
  if (!simd::SelfCheck()) {
    std::fprintf(stderr,
                 "perf_smoke: simd::SelfCheck FAILED — %s kernels do not "
                 "match the scalar reference\n",
                 simd::ActiveBackend());
    return 2;
  }

  // Per-kernel speedup floors (see kKernels), gated only when a
  // vectorized backend is compiled in (on the scalar fallback both paths
  // are the same code and the ratio hovers around 1).
  const bool gated = simd::kEnabled;

  struct Row {
    const char* name;
    double scalar_ms, simd_ms, speedup, floor;
  };
  std::vector<Row> rows;
  bool pass = true;
  for (const Kernel& kernel : kKernels) {
    const BatchSeconds t = MeasureBatchSeconds(kernel);
    const double speedup = t.scalar / t.simd;
    rows.push_back(
        Row{kernel.name, t.scalar * 1e3, t.simd * 1e3, speedup, kernel.floor});
    if (gated && speedup < kernel.floor) pass = false;
  }

  bench::JsonWriter json;
  json.Add("benchmark", "kernels_smoke")
      .Add("backend", simd::ActiveBackend())
      .Add("frame", std::to_string(kFrameW) + "x" + std::to_string(kFrameH))
      .Add("matvec_shape",
           std::to_string(kMatVecIn) + "->" + std::to_string(kMatVecOut))
      .Add("batch_gradient_shape",
           std::to_string(kTrainBatch) + "x" + std::to_string(kMatVecIn) +
               "->" + std::to_string(kMatVecOut))
      .Add("adam_params", kAdamParams)
      .Begin("kernels");
  for (const Row& r : rows) {
    json.Begin(r.name)
        .Add("scalar_ms", r.scalar_ms)
        .Add("simd_ms", r.simd_ms)
        .Add("speedup", r.speedup)
        .Add("floor", r.floor)
        .End();
  }
  json.End()
      .Add("gated", gated)
      .Add("pass", pass)
      .Add("note",
           "scalar/simd thread-CPU ms per work batch, best of 5 "
           "interleaved scalar/simd runs; outputs are "
           "bit-identical across backends (simd::SelfCheck + "
           "test_simd_kernels); floors apply per kernel and only when a "
           "vectorized backend is compiled in");
  if (!json.WriteFile(path)) return 2;

  for (const Row& r : rows) {
    std::printf(
        "perf_smoke: %-14s scalar %7.2f ms  %s %7.2f ms  %.2fx "
        "(floor %.1fx)%s\n",
        r.name, r.scalar_ms, simd::ActiveBackend(), r.simd_ms, r.speedup,
        r.floor, gated && r.speedup < r.floor ? "  << FLOOR" : "");
  }
  std::printf("perf_smoke: backend %s, per-kernel floors (%s) -> %s\n",
              simd::ActiveBackend(),
              gated ? "gated" : "not gated on scalar fallback",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace dievent

int main(int argc, char** argv) {
  for (const dievent::Kernel& kernel : dievent::kKernels) {
    benchmark::RegisterBenchmark(
        (std::string("BM_") + kernel.name + "/scalar").c_str(),
        [&kernel](benchmark::State& s) { dievent::BM_Kernel(s, kernel, false); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_") + kernel.name + "/simd").c_str(),
        [&kernel](benchmark::State& s) { dievent::BM_Kernel(s, kernel, true); })
        ->Unit(benchmark::kMillisecond);
  }
  return dievent::bench::BenchMain(argc, argv, dievent::RunPerfSmoke);
}
