// SCHED: fleet-scheduler throughput and overload behavior — fleet
// frames/sec as runner parallelism grows (runners take jobs straight
// from the scheduler's pending list), and the admission controller's
// shed decisions under a burst of low-priority submissions.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "fleet/scheduler.h"
#include "perf_smoke.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

/// One tenant's scene: 10 ground-truth frames of a 3-person dinner —
/// small enough that scheduler overhead is visible in the numbers.
const DiningScene& JobScene() {
  static const DiningScene* scene =
      new DiningScene(MakeDinnerScenario(3, 1.0, 10.0));
  return *scene;
}

EventJobSpec InMemoryJob(const std::string& name,
                         JobPriority priority = JobPriority::kNormal) {
  EventJobSpec spec;
  spec.name = name;
  spec.scene = &JobScene();
  spec.priority = priority;
  spec.pipeline.mode = PipelineMode::kGroundTruth;
  spec.pipeline.parse_video = false;
  return spec;
}

/// Fleet throughput: 8 in-memory tenants drained by M runners.
void BM_FleetThroughput(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int frames = JobScene().num_frames();
  constexpr int kJobs = 8;
  for (auto _ : state) {
    SchedulerOptions options;
    options.max_concurrent = m;
    EventScheduler scheduler(options);
    for (int i = 0; i < kJobs; ++i) {
      scheduler.Submit(InMemoryJob("job" + std::to_string(i)));
    }
    if (!scheduler.RunUntilDrained().ok()) {
      state.SkipWithError("fleet did not drain clean");
    }
    benchmark::DoNotOptimize(scheduler.stats().frames_committed);
  }
  state.SetItemsProcessed(state.iterations() * kJobs * frames);
  state.SetLabel(std::to_string(m) + " runner(s)");
}
BENCHMARK(BM_FleetThroughput)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- perf smoke ----------------------------------------------------------
// `bench_scheduler --perf_smoke=PATH` drains the same 12-tenant fleet
// with one runner and with min(4, cores) runners (best of two each),
// checks the multi-runner fleet clears the hardware-aware throughput
// floor, runs a deterministic admission-control drill (a burst of
// low-priority submissions past the shed threshold), and writes PATH as
// JSON. Wired into the `perf-smoke` CMake target for CI;
// BENCH_scheduler.json at the repo root is the committed snapshot.

constexpr int kSmokeJobs = 12;

double MeasureFleetFps(int max_concurrent) {
  const int frames = JobScene().num_frames();
  double best_wall = 0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    SchedulerOptions options;
    options.max_concurrent = max_concurrent;
    EventScheduler scheduler(options);
    for (int i = 0; i < kSmokeJobs; ++i) {
      scheduler.Submit(InMemoryJob("smoke" + std::to_string(i)));
    }
    auto start = std::chrono::steady_clock::now();  // lint: allow(steady-clock): measures real wall time
    Status drained = scheduler.RunUntilDrained();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)  // lint: allow(steady-clock): measures real wall time
                      .count();
    if (!drained.ok()) {
      std::fprintf(stderr, "perf_smoke: fleet failed: %s\n",
                   drained.ToString().c_str());
      std::exit(2);
    }
    if (best_wall == 0 || wall < best_wall) best_wall = wall;
  }
  return kSmokeJobs * frames / best_wall;
}

int RunPerfSmoke(const std::string& path) {
  const unsigned cores = std::thread::hardware_concurrency();
  const int m = cores >= 4 ? 4 : (cores >= 2 ? 2 : 1);
  const double serial_fps = MeasureFleetFps(1);
  const double fleet_fps = MeasureFleetFps(m);
  const double speedup = fleet_fps / serial_fps;
  // M independent CPU-bound tenants should scale on a multi-core host;
  // at minimum the scheduler must not cost throughput. On one core we
  // only guard against pathological dispatch overhead.
  const double floor = cores >= 2 ? 1.0 : 0.8;

  // Admission-control drill: 8 normal tenants fill the waiting
  // population past the shed threshold, then a burst of 8 low-priority
  // submissions arrives. Every one of them must shed, deterministically.
  SchedulerOptions options;
  options.shed_waiting_above = 4;
  EventScheduler scheduler(options);
  for (int i = 0; i < 8; ++i) {
    scheduler.Submit(InMemoryJob("keep" + std::to_string(i)));
  }
  for (int i = 0; i < 8; ++i) {
    scheduler.Submit(
        InMemoryJob("burst" + std::to_string(i), JobPriority::kLow));
  }
  if (!scheduler.RunUntilDrained().ok()) {
    std::fprintf(stderr, "perf_smoke: shed drill did not drain clean\n");
    return 2;
  }
  FleetStats shed_stats = scheduler.stats();
  const bool shed_ok =
      shed_stats.shed == 8 && shed_stats.completed == 8;
  const bool pass = speedup >= floor && shed_ok;

  bench::JsonWriter json;
  json.Add("benchmark", "fleet_scheduler_smoke")
      .Add("jobs", kSmokeJobs)
      .Add("frames_per_job", JobScene().num_frames())
      .Add("hardware_concurrency", cores)
      .Add("runners", m)
      .Add("serial_fps", serial_fps)
      .Add("fleet_fps", fleet_fps)
      .Add("speedup", speedup)
      .Add("throughput_floor", floor)
      .Begin("shed_drill")
      .Add("submitted", shed_stats.submitted)
      .Add("completed", shed_stats.completed)
      .Add("shed", shed_stats.shed)
      .Add("shed_rate",
           static_cast<double>(shed_stats.shed) / shed_stats.submitted)
      .End()
      .Add("pass", pass)
      .Add("note",
           "floor is 1.0x on multi-core hosts (independent tenants should "
           "scale with runners), 0.8x on a single core; the shed drill must "
           "reject exactly the low-priority burst");
  if (!json.WriteFile(path)) return 2;
  std::printf(
      "perf_smoke: serial %.1f fps, %d runners %.1f fps (%.2fx, floor "
      "%.1fx on %u cores), shed %d/%d low -> %s\n",
      serial_fps, m, fleet_fps, speedup, floor, cores, shed_stats.shed,
      shed_stats.submitted, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace dievent

int main(int argc, char** argv) {
  return dievent::bench::BenchMain(argc, argv, dievent::RunPerfSmoke);
}
