/// \file fleet.cc
/// fleet_groundtruth: 16 seeded random-scenario tenants through the
/// EventScheduler, nproc at a time, each journaling into its own
/// DurableEventStore (fsync on every record, a checkpoint every 64
/// frames) and registering into one EventCorpus on completion. Per-frame
/// analysis takes microseconds here, so the run is bound by journal
/// appends, fsyncs, checkpoints and dispatch.
///
/// Whole fleets run back to back, each in a fresh directory, until the
/// requested time is spent. The traced run threads a timing FileSystem
/// through EventJobSpec::fs_for_attempt and CorpusOptions::fs.

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "fleet/scheduler.h"
#include "metadata/corpus.h"
#include "metadata/durable_store.h"
#include "sim/scenario.h"

namespace perfbench {

using namespace dievent;

namespace {

constexpr int kTenants = 16;
constexpr int kFrames = 610;
constexpr double kFps = 15.25;
constexpr int kCheckpointEvery = 64;
constexpr int kSetupReps = 5;
constexpr int kMinFleets = 2;

struct Tenant {
  std::string name;
  DiningScene scene;
  LookAtSummary expected;  ///< ground-truth summary, filled lazily
};

/// Seeded scenes: 3..8 participants, cycling.
std::deque<Tenant> MakeTenants(uint64_t seed) {
  std::deque<Tenant> tenants;
  Rng rng(seed);
  for (int i = 0; i < kTenants; ++i) {
    const int n = 3 + i % 6;
    char name[32];
    std::snprintf(name, sizeof(name), "tenant-%02d", i);
    tenants.push_back(
        {name, MakeRandomScenario(n, kFrames, kFps, &rng), LookAtSummary()});
  }
  return tenants;
}

LookAtSummary GroundTruthSummary(const DiningScene& scene) {
  const int n = scene.NumParticipants();
  LookAtSummary summary(n);
  for (int f = 0; f < scene.num_frames(); ++f) {
    const auto truth = scene.GroundTruthLookAt(scene.TimeOfFrame(f));
    LookAtMatrix m(n);
    for (int x = 0; x < n; ++x) {
      for (int y = 0; y < n; ++y) {
        if (truth[x][y]) m.Set(x, y, true);
      }
    }
    (void)summary.Accumulate(m);
  }
  return summary;
}

struct FleetRun {
  Measured m;
  long long records = 0;
  std::vector<double> queue_wait_s;
  long long retries = 0;
};

/// Runs the first `count` tenants as one fleet in `dir` and checks its
/// outputs (outside the timed region). `fs` is null for the default
/// filesystem.
void RunOneFleet(std::deque<Tenant>* tenants, size_t count,
                 const std::string& dir, int nproc, FileSystem* fs,
                 Outcome* out, FleetRun* run) {
  CorpusOptions corpus_options;
  corpus_options.fs = fs;
  Result<std::unique_ptr<EventCorpus>> corpus =
      EventCorpus::Open(dir + "/corpus", corpus_options);
  out->Check(corpus.ok(), "open corpus: " + corpus.status().ToString());
  if (!corpus.ok()) return;

  SchedulerOptions sched;
  sched.max_concurrent = nproc;
  sched.corpus = corpus.value().get();
  // Per-tenant commit instants, written only by the runner thread that
  // owns the tenant's attempt.
  std::vector<std::vector<double>> commits(count);
  std::vector<int> ids;
  {
    EventScheduler scheduler(sched);
    for (size_t i = 0; i < count; ++i) {
      Tenant& t = (*tenants)[i];
      commits[i].reserve(kFrames);
      EventJobSpec spec;
      spec.name = t.name;
      spec.scene = &t.scene;
      spec.pipeline.mode = PipelineMode::kGroundTruth;
      spec.pipeline.parse_video = false;
      spec.pipeline.checkpoint_every_frames = kCheckpointEvery;
      spec.store_dir = dir + "/" + t.name;
      if (fs != nullptr) {
        spec.fs_for_attempt = [fs](int) { return fs; };
      }
      std::vector<double>* sink = &commits[i];
      spec.post_frame_hook = [sink](int, double) { sink->push_back(NowS()); };
      ids.push_back(scheduler.Submit(std::move(spec)));
    }
    const double c0 = ProcessCpuS();
    const double t0 = NowS();
    scheduler.Start();
    const Status drained = scheduler.RunUntilDrained();
    const double wall = NowS() - t0;
    run->m.cpu_s += ProcessCpuS() - c0;

    out->Check(drained.ok(), "fleet drained: " + drained.ToString());
    const FleetStats stats = scheduler.stats();
    out->Check(stats.completed == static_cast<int>(count) && stats.parked == 0,
               "every tenant completed");
    out->Check(stats.retries == 0, "no tenant retried");
    run->retries += stats.retries;
    for (const JobStats& js : stats.jobs) {
      if (!js.attempt_started_at_s.empty()) {
        run->queue_wait_s.push_back(js.attempt_started_at_s.front() -
                                    js.admitted_at_s);
      }
    }
    for (size_t i = 0; i < count; ++i) {
      Tenant& t = (*tenants)[i];
      const EventJobResult* result = scheduler.result(ids[i]);
      out->Check(result != nullptr && result->status.ok(),
                 t.name + " has a result");
      out->attempted += static_cast<long long>(commits[i].size());
      if (result == nullptr || !result->status.ok()) continue;
      const DiEventReport& report = result->report;
      out->Check(report.frames_processed == kFrames,
                 t.name + " committed every frame");
      if (t.expected.size() == 0) t.expected = GroundTruthSummary(t.scene);
      out->Check(SameSummary(report.summary, t.expected),
                 t.name + " look-at summary equals ground truth");
      Result<MetadataRepository> stored =
          DurableEventStore::LoadState(nullptr, dir + "/" + t.name);
      out->Check(stored.ok() &&
                     stored.value().TotalRecords() ==
                         result->repository.TotalRecords() &&
                     stored.value().lookat_records().size() ==
                         static_cast<size_t>(kFrames),
                 t.name + " store holds the tenant's records");
      run->records += report.degradation.journal_records;
      for (size_t k = 0; k < commits[i].size(); ++k) {
        run->m.done_at_s.push_back(run->m.timed_s + commits[i][k] - t0);
        if (k > 0) {
          run->m.latencies_ms.push_back(
              1e3 * (commits[i][k] - commits[i][k - 1]));
        }
      }
    }
    run->m.timed_s += wall;
  }
  const std::vector<ShardIndexEntry> shards = corpus.value()->shards();
  size_t listed = 0;
  for (size_t i = 0; i < count; ++i) {
    const Tenant& t = (*tenants)[i];
    for (const ShardIndexEntry& e : shards) {
      if (e.dir == t.name || e.dir == dir + "/" + t.name) {
        ++listed;
        break;
      }
    }
  }
  out->Check(listed == count, "corpus lists every tenant");
}

}  // namespace

void RunFleet(const Args& args, Outcome* out) {
  // Set-up: build the scenes, then one warm-up wave of nproc tenants
  // (first touch of the store, journal, scheduler and corpus paths).
  std::vector<double> setup_reps;
  std::deque<Tenant> tenants;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = NowS();
    std::deque<Tenant> built = MakeTenants(args.seed);
    const std::string dir = args.work_dir + "/warmup";
    FleetRun warmup;
    RunOneFleet(&built, std::min<size_t>(built.size(), args.nproc), dir,
                args.nproc, nullptr, out, &warmup);
    RemoveTree(dir);
    setup_reps.push_back(NowS() - t0);
    tenants = std::move(built);
  }

  SpanRecorder rec(args.trace);
  TimedFileSystem timed_fs(FileSystem::Default(), &rec);
  FileSystem* fs = args.trace ? &timed_fs : nullptr;

  FleetRun run;
  run.m.Reserve(1 << 20);
  int fleets = 0;
  const double start = NowS();
  while (fleets < kMinFleets || NowS() - start < args.seconds) {
    const std::string dir =
        args.work_dir + "/fleet-" + std::to_string(fleets);
    RemoveTree(dir);
    RunOneFleet(&tenants, tenants.size(), dir, args.nproc, fs, out, &run);
    RemoveTree(dir);
    ++fleets;
    if (out->failed > 0) break;
  }
  std::printf("perfbench: %d fleets of %d tenants\n", fleets, kTenants);

  if (!args.trace) {
    Measured& m = run.m;
    m.setup_reps_s = setup_reps;
    const double records_per_frame =
        static_cast<double>(run.records) /
        std::max<size_t>(1, m.done_at_s.size());
    for (double r : WindowRates(m.done_at_s, m.timed_s, 10)) {
      m.record_rates.push_back(r * records_per_frame);
    }
    out->AddEndToEnd(std::move(m));
    return;
  }
  const IoCounters& io = timed_fs.counters();
  const double records = static_cast<double>(std::max(1LL, run.records));
  LayerCounts counts;
  counts["io.syncs_per_record"] = io.AllSyncs() / records;
  counts["io.journal_bytes_per_record"] =
      io.AppendBytes(FileKind::kJournal) / records;
  counts["io.snapshot_bytes_per_record"] =
      io.AppendBytes(FileKind::kSnapshot) / records;
  counts["io.read_bytes_per_tenant"] =
      static_cast<double>(io.read_bytes.load()) / (fleets * kTenants);
  counts["fleet.queue_wait_s"] = Median(run.queue_wait_s);
  counts["fleet.retries"] = static_cast<double>(run.retries);
  out->AddPerLayer(rec, counts, args.trace_path);
}

}  // namespace perfbench
