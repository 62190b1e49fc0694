// META: metadata repository ingest and query vocabulary (paper Section
// II-E) — record ingest rate, query latency across repository sizes
// (10^3 .. 10^6 records), episode derivation, scene retrieval,
// save/load throughput, and the sharded corpus engine (batched ingest
// amortization + manifest-pruned cross-event queries).
//
// `bench_metadata --perf_smoke=PATH` additionally runs the corpus
// smoke: builds a sharded corpus with disjoint per-event time windows,
// then gates that a shard-pruned cross-event query beats the
// open-every-shard baseline while returning bit-identical results.
// Writes PATH as JSON; wired into the `perf-smoke` CMake target.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/file.h"
#include "metadata/corpus.h"
#include "metadata/durable_store.h"
#include "metadata/query.h"
#include "metadata/query_parser.h"
#include "metadata/repository.h"
#include "perf_smoke.h"

namespace dievent {
namespace {

/// A repository with `frames` synthetic look-at + overall records for 6
/// participants, a shot every 200 frames, a scene every 3 shots.
MetadataRepository MakeRepo(int frames, uint64_t seed) {
  MetadataRepository repo;
  repo.set_fps(15.25);
  Rng rng(seed);
  const int n = 6;
  for (int f = 0; f < frames; ++f) {
    LookAtMatrix m(n);
    for (int x = 0; x < n; ++x) {
      if (rng.NextBool(0.7)) {
        int y;
        do {
          y = static_cast<int>(rng.NextBelow(n));
        } while (y == x);
        m.Set(x, y, true);
      }
    }
    (void)repo.AddLookAt(LookAtRecord::FromMatrix(f, f / 15.25, m));
    OverallEmotionRecord oe;
    oe.frame = f;
    oe.timestamp_s = f / 15.25;
    oe.overall_happiness = rng.NextDouble();
    oe.mean_valence = rng.Uniform(-1, 1);
    oe.observed = n;
    (void)repo.AddOverallEmotion(oe);
  }
  VideoStructure vs;
  vs.num_frames = frames;
  vs.fps = 15.25;
  SceneSegment current;
  for (int begin = 0; begin < frames; begin += 200) {
    current.shots.push_back(
        Shot{begin, std::min(frames, begin + 200), {begin}});
    if (current.shots.size() == 3) {
      vs.scenes.push_back(current);
      current = SceneSegment{};
    }
  }
  if (!current.shots.empty()) vs.scenes.push_back(current);
  repo.SetVideoStructure(vs);
  return repo;
}

void BM_IngestLookAt(benchmark::State& state) {
  for (auto _ : state) {
    MetadataRepository repo = MakeRepo(static_cast<int>(state.range(0)), 3);
    benchmark::DoNotOptimize(repo.TotalRecords());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_IngestLookAt)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_QueryEyeContact(benchmark::State& state) {
  MetadataRepository repo = MakeRepo(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Query(&repo).EyeContact(0, 3).Execute());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QueryEyeContact)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_QueryTimeRangeAndOH(benchmark::State& state) {
  MetadataRepository repo = MakeRepo(static_cast<int>(state.range(0)), 6);
  double t1 = state.range(0) / 15.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Query(&repo)
                                 .TimeRange(t1 * 0.25, t1 * 0.5)
                                 .MinOverallHappiness(0.8)
                                 .Execute());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QueryTimeRangeAndOH)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_PairIndexLookup(benchmark::State& state) {
  MetadataRepository repo = MakeRepo(static_cast<int>(state.range(0)), 7);
  (void)repo.FramesWithLook(0, 1);  // build the index outside the loop
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(repo.FramesWithLook(x % 6, (x + 1) % 6));
    ++x;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairIndexLookup)->Arg(100000);

void BM_EpisodeDerivation(benchmark::State& state) {
  MetadataRepository repo = MakeRepo(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(repo.EyeContactEpisodes(2, 1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EpisodeDerivation)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_SceneRetrieval(benchmark::State& state) {
  MetadataRepository repo = MakeRepo(static_cast<int>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Query(&repo).AnyoneLookingAt(2).ExecuteScenes(0.5));
  }
}
BENCHMARK(BM_SceneRetrieval)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_SaveLoad(benchmark::State& state) {
  MetadataRepository repo = MakeRepo(static_cast<int>(state.range(0)), 10);
  std::string path = "/tmp/dievent_bench_repo.dmr";
  for (auto _ : state) {
    if (!repo.Save(path).ok()) state.SkipWithError("save failed");
    auto loaded = MetadataRepository::Load(path);
    if (!loaded.ok()) state.SkipWithError("load failed");
    benchmark::DoNotOptimize(loaded.value().TotalRecords());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_SaveLoad)->Arg(10000)->Unit(benchmark::kMillisecond);

// --- durable store (write-ahead journal + checkpoints) -------------------

/// Removes every file in `dir` so each iteration starts cold.
void WipeDir(const std::string& dir) {
  FileSystem* fs = FileSystem::Default();
  if (!fs->Exists(dir)) return;
  auto names = fs->ListDir(dir);
  if (!names.ok()) return;
  for (const auto& n : names.value()) (void)fs->Remove(JoinPath(dir, n));
}

LookAtRecord BenchRecord(int f) {
  LookAtMatrix m(6);
  m.Set(f % 6, (f + 1) % 6, true);
  return LookAtRecord::FromMatrix(f, f / 15.25, m);
}

/// Journal append throughput per fsync policy: the cost of durability
/// per acknowledged record.
void BM_JournalAppend(benchmark::State& state) {
  const std::string dir = "/tmp/dievent_bench_store";
  JournalOptions jopt;
  jopt.fsync =
      state.range(0) == 0 ? FsyncPolicy::kEveryRecord : FsyncPolicy::kNever;
  for (auto _ : state) {
    state.PauseTiming();
    WipeDir(dir);
    DurableStoreOptions opt;
    opt.journal = jopt;
    auto store = DurableEventStore::Open(dir, opt);
    if (!store.ok()) {
      state.SkipWithError("open failed");
      break;
    }
    state.ResumeTiming();
    for (int f = 0; f < 1000; ++f) {
      if (!store.value()->AddLookAt(BenchRecord(f)).ok()) {
        state.SkipWithError("append failed");
        break;
      }
    }
    state.PauseTiming();
    (void)store.value()->Close();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.SetLabel(state.range(0) == 0 ? "fsync=every" : "fsync=never");
}
BENCHMARK(BM_JournalAppend)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Checkpoint cost: fold a journal of `range(0)` records into a
/// snapshot and reset the segments.
void BM_Checkpoint(benchmark::State& state) {
  const std::string dir = "/tmp/dievent_bench_store";
  for (auto _ : state) {
    state.PauseTiming();
    WipeDir(dir);
    DurableStoreOptions opt;
    opt.journal.fsync = FsyncPolicy::kNever;
    auto store = DurableEventStore::Open(dir, opt);
    if (!store.ok()) {
      state.SkipWithError("open failed");
      break;
    }
    for (int f = 0; f < state.range(0); ++f) {
      (void)store.value()->AddLookAt(BenchRecord(f));
    }
    state.ResumeTiming();
    if (!store.value()->Checkpoint().ok()) {
      state.SkipWithError("checkpoint failed");
      break;
    }
    state.PauseTiming();
    (void)store.value()->Close();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Checkpoint)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// Recovery (Open) latency: snapshot load + journal replay.
void BM_Recover(benchmark::State& state) {
  const std::string dir = "/tmp/dievent_bench_store";
  WipeDir(dir);
  {
    DurableStoreOptions opt;
    opt.journal.fsync = FsyncPolicy::kNever;
    auto store = DurableEventStore::Open(dir, opt);
    if (!store.ok()) {
      state.SkipWithError("seed open failed");
      return;
    }
    for (int f = 0; f < state.range(0); ++f) {
      (void)store.value()->AddLookAt(BenchRecord(f));
      if (f == state.range(0) / 2) (void)store.value()->Checkpoint();
    }
    (void)store.value()->Close();
  }
  for (auto _ : state) {
    auto store = DurableEventStore::Open(dir);
    if (!store.ok()) {
      state.SkipWithError("recover failed");
      break;
    }
    benchmark::DoNotOptimize(store.value()->recovery().records_replayed);
    (void)store.value()->Close();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Recover)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// --- sharded corpus (cross-event storage + query engine) -----------------

/// Wipes a corpus directory: shard subdirectories first, then the root
/// entries themselves.
void WipeCorpusDir(const std::string& dir) {
  FileSystem* fs = FileSystem::Default();
  if (!fs->Exists(dir)) return;
  auto names = fs->ListDir(dir);
  if (!names.ok()) return;
  for (const auto& name : names.value()) {
    const std::string path = JoinPath(dir, name);
    auto nested = fs->ListDir(path);
    if (nested.ok()) {  // a shard directory: wipe contents, then rmdir
      for (const auto& inner : nested.value()) {
        (void)fs->Remove(JoinPath(path, inner));
      }
      (void)fs->RemoveDir(path);
    } else {
      (void)fs->Remove(path);
    }
  }
}

/// Seconds between event start times: shard time windows are disjoint,
/// which is what makes time-range pruning decisive.
constexpr double kShardWindowS = 1000.0;

/// One event's worth of synthetic records (look-at + overall), offset
/// into the event's own time window.
RecordBatch MakeEventBatch(int event, int frames, uint64_t seed) {
  RecordBatch batch;
  Rng rng(seed + static_cast<uint64_t>(event));
  const int n = 6;
  const double offset = event * kShardWindowS;
  batch.lookat.reserve(frames);
  batch.overall.reserve(frames);
  for (int f = 0; f < frames; ++f) {
    LookAtMatrix m(n);
    for (int x = 0; x < n; ++x) {
      if (rng.NextBool(0.7)) {
        int y;
        do {
          y = static_cast<int>(rng.NextBelow(n));
        } while (y == x);
        m.Set(x, y, true);
      }
    }
    batch.lookat.push_back(
        LookAtRecord::FromMatrix(f, offset + f / 15.25, m));
    OverallEmotionRecord oe;
    oe.frame = f;
    oe.timestamp_s = offset + f / 15.25;
    oe.overall_happiness = rng.NextDouble();
    oe.mean_valence = rng.Uniform(-1, 1);
    oe.observed = n;
    batch.overall.push_back(oe);
  }
  return batch;
}

EventContext MakeEventContext(int event) {
  EventContext context;
  char id[32];
  std::snprintf(id, sizeof(id), "event-%03d", event);
  context.event_id = id;
  context.location = (event % 2 == 0) ? "sala roja" : "terrace";
  context.occasion = (event % 3 == 0) ? "birthday" : "dinner";
  context.num_participants = 6;
  return context;
}

/// Builds a corpus of `events` sealed shards, `frames` frames each,
/// ingested through AppendBatch in chunks of `batch_size` records.
/// Returns false (and reports via benchmark::State or stderr) on error.
bool BuildCorpus(const std::string& dir, int events, int frames,
                 int batch_size, double* ingest_wall_s) {
  WipeCorpusDir(dir);
  auto corpus = EventCorpus::Open(dir);
  if (!corpus.ok()) return false;
  auto start = std::chrono::steady_clock::now();  // lint: allow(steady-clock): measures real wall time
  for (int e = 0; e < events; ++e) {
    auto store = corpus.value()->BeginShard(MakeEventContext(e).event_id);
    if (!store.ok()) return false;
    if (!store.value()->SetContext(MakeEventContext(e)).ok()) return false;
    RecordBatch all = MakeEventBatch(e, frames, 17);
    for (size_t at = 0; at < all.lookat.size();
         at += static_cast<size_t>(batch_size)) {
      RecordBatch chunk;
      const size_t end =
          std::min(all.lookat.size(), at + static_cast<size_t>(batch_size));
      chunk.lookat.assign(all.lookat.begin() + at, all.lookat.begin() + end);
      chunk.overall.assign(all.overall.begin() + at,
                           all.overall.begin() + end);
      if (!store.value()->AppendBatch(chunk).ok()) return false;
    }
    if (!corpus.value()->SealShard(MakeEventContext(e).event_id).ok()) {
      return false;
    }
  }
  if (ingest_wall_s != nullptr) {
    *ingest_wall_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)  // lint: allow(steady-clock): measures real wall time
                         .count();
  }
  return true;
}

/// Batched vs record-at-a-time journal appends: same records, same
/// fsync policy — the batch frames amortize both the write syscalls and
/// the fsyncs.
void BM_BatchedAppend(benchmark::State& state) {
  const std::string dir = "/tmp/dievent_bench_store";
  const int batch_size = static_cast<int>(state.range(0));
  const int frames = 1000;
  RecordBatch all = MakeEventBatch(0, frames, 23);
  for (auto _ : state) {
    state.PauseTiming();
    WipeDir(dir);
    DurableStoreOptions opt;
    opt.journal.fsync = FsyncPolicy::kEveryRecord;
    auto store = DurableEventStore::Open(dir, opt);
    if (!store.ok()) {
      state.SkipWithError("open failed");
      break;
    }
    state.ResumeTiming();
    if (batch_size <= 1) {
      for (int f = 0; f < frames; ++f) {
        if (!store.value()->AddLookAt(all.lookat[f]).ok() ||
            !store.value()->AddOverallEmotion(all.overall[f]).ok()) {
          state.SkipWithError("append failed");
          break;
        }
      }
    } else {
      for (size_t at = 0; at < all.lookat.size();
           at += static_cast<size_t>(batch_size)) {
        RecordBatch chunk;
        const size_t end = std::min(all.lookat.size(),
                                    at + static_cast<size_t>(batch_size));
        chunk.lookat.assign(all.lookat.begin() + at,
                            all.lookat.begin() + end);
        chunk.overall.assign(all.overall.begin() + at,
                             all.overall.begin() + end);
        if (!store.value()->AppendBatch(chunk).ok()) {
          state.SkipWithError("batch append failed");
          break;
        }
      }
    }
    state.PauseTiming();
    (void)store.value()->Close();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * frames * 2);
  state.SetLabel(batch_size <= 1 ? "record-at-a-time"
                                 : "batch=" + std::to_string(batch_size));
}
BENCHMARK(BM_BatchedAppend)->Arg(1)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMillisecond);

/// The corpus smoke query: a time window inside one shard plus an
/// eye-contact predicate — the manifest prunes every other shard.
CorpusQuerySpec SmokeQuery(int events) {
  const double t0 = (events / 2) * kShardWindowS;
  auto parsed = ParseCorpusQuery(
      "events : time[" + std::to_string(t0) + "," +
      std::to_string(t0 + kShardWindowS) + ") & ec(P1, P4)");
  return parsed.ok() ? parsed.value() : CorpusQuerySpec{};
}

/// Open-every-shard baseline: scope-filter against the manifest but
/// load and evaluate every in-scope shard, no pruning. This is what a
/// corpus without per-shard bounds would have to do.
Result<std::vector<EventMatches>> OpenAllBaseline(
    const std::string& dir, const CorpusQuerySpec& spec) {
  auto corpus = EventCorpus::Open(dir);
  if (!corpus.ok()) return corpus.status();
  std::vector<EventMatches> events;
  for (const auto& entry : corpus.value()->shards()) {
    if (!EventCorpus::ShardInScope(entry, spec.scope)) continue;
    auto repo = DurableEventStore::LoadState(FileSystem::Default(),
                                            JoinPath(dir, entry.dir));
    if (!repo.ok()) return repo.status();
    EventMatches matches;
    matches.event_id = entry.event_id;
    matches.shard_dir = entry.dir;
    matches.frames = Query(&repo.value(), spec.frame).Execute();
    events.push_back(std::move(matches));
  }
  std::sort(events.begin(), events.end(),
            [](const EventMatches& a, const EventMatches& b) {
              return a.event_id != b.event_id ? a.event_id < b.event_id
                                              : a.shard_dir < b.shard_dir;
            });
  return events;
}

/// Manifest-pruned corpus query over `range(0)` shards; a fresh
/// EventCorpus per iteration keeps the repository cache cold, so the
/// measurement includes the shard opens pruning avoids.
void BM_CorpusQueryPruned(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const std::string dir =
      "/tmp/dievent_bench_corpus_" + std::to_string(events);
  if (!BuildCorpus(dir, events, 200, 256, nullptr)) {
    state.SkipWithError("corpus build failed");
    return;
  }
  const CorpusQuerySpec spec = SmokeQuery(events);
  uint64_t pruned = 0;
  for (auto _ : state) {
    auto corpus = EventCorpus::Open(dir);
    if (!corpus.ok()) {
      state.SkipWithError("open failed");
      break;
    }
    auto result = corpus.value()->Query(spec);
    if (!result.ok()) {
      state.SkipWithError("query failed");
      break;
    }
    pruned = result.value().shards_pruned;
    benchmark::DoNotOptimize(result.value().total_frames);
  }
  state.SetLabel("pruned=" + std::to_string(pruned) + "/" +
                 std::to_string(events));
}
BENCHMARK(BM_CorpusQueryPruned)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

/// The same query answered by opening every shard (the no-index
/// baseline BM_CorpusQueryPruned beats).
void BM_CorpusQueryOpenAll(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const std::string dir =
      "/tmp/dievent_bench_corpus_" + std::to_string(events);
  if (!BuildCorpus(dir, events, 200, 256, nullptr)) {
    state.SkipWithError("corpus build failed");
    return;
  }
  const CorpusQuerySpec spec = SmokeQuery(events);
  for (auto _ : state) {
    auto result = OpenAllBaseline(dir, spec);
    if (!result.ok()) {
      state.SkipWithError("baseline failed");
      break;
    }
    benchmark::DoNotOptimize(result.value().size());
  }
}
BENCHMARK(BM_CorpusQueryOpenAll)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

/// Printed scale table: ingest + query latency up to 10^6 records.
void ScaleReport() {
  std::printf(
      "\n==== repository scale (records = look-at + overall rows) ====\n");
  std::printf("%-12s %-14s %-16s %-16s\n", "frames", "ingest(ms)",
              "EC query(ms)", "scene query(ms)");
  for (int frames : {1000, 10000, 100000, 500000}) {
    auto t0 = std::chrono::steady_clock::now();  // lint: allow(steady-clock): measures real wall time
    MetadataRepository repo = MakeRepo(frames, 21);
    double ingest_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)  // lint: allow(steady-clock): measures real wall time
            .count();
    t0 = std::chrono::steady_clock::now();  // lint: allow(steady-clock): measures real wall time
    auto ec = Query(&repo).EyeContact(0, 3).Execute();
    double ec_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)  // lint: allow(steady-clock): measures real wall time
                       .count();
    t0 = std::chrono::steady_clock::now();  // lint: allow(steady-clock): measures real wall time
    auto scenes = Query(&repo).AnyoneLookingAt(2).ExecuteScenes(0.4);
    double scene_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)  // lint: allow(steady-clock): measures real wall time
                          .count();
    std::printf("%-12d %-14.1f %-16.2f %-16.2f (matches: %zu EC frames, "
                "%zu scenes)\n",
                frames, ingest_ms, ec_ms, scene_ms, ec.size(),
                scenes.size());
  }
}

// --- perf smoke ----------------------------------------------------------
// `bench_metadata --perf_smoke=PATH` builds a sharded corpus (batched
// ingest, disjoint per-event time windows), answers one cross-event
// query twice — manifest-pruned vs opening every shard — and writes
// PATH as JSON. It exits nonzero when the pruned path fails to beat the
// open-every-shard baseline or when the two paths disagree on any
// matched frame. Wired up as the `perf-smoke` CMake target for CI.

struct CorpusSmoke {
  double wall_s = 0;
  CorpusQueryResult result;
};

int RunPerfSmoke(const std::string& path) {
  const int kEvents = 32;
  const int kFrames = 400;
  const std::string dir = "/tmp/dievent_bench_corpus_smoke";

  // Batched vs record-at-a-time ingest of the same corpus (reported,
  // not gated — the gate is the query below).
  double batch_ingest_s = 0;
  if (!BuildCorpus(dir, kEvents, kFrames, 512, &batch_ingest_s)) {
    std::fprintf(stderr, "perf_smoke: corpus build failed\n");
    return 2;
  }
  double single_ingest_s = 0;
  {
    const std::string probe = "/tmp/dievent_bench_corpus_probe";
    WipeCorpusDir(probe);
    if (!BuildCorpus(probe, 2, kFrames, 1, &single_ingest_s)) {
      std::fprintf(stderr, "perf_smoke: probe build failed\n");
      return 2;
    }
    // Scale to the same work as the batched build.
    single_ingest_s *= kEvents / 2.0;
  }
  const long long records = 2LL * kEvents * kFrames;
  const double batch_rps = records / batch_ingest_s;
  const double single_rps = records / single_ingest_s;

  const CorpusQuerySpec spec = SmokeQuery(kEvents);
  CorpusSmoke pruned;
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto corpus = EventCorpus::Open(dir);
    if (!corpus.ok()) {
      std::fprintf(stderr, "perf_smoke: %s\n",
                   corpus.status().ToString().c_str());
      return 2;
    }
    auto start = std::chrono::steady_clock::now();  // lint: allow(steady-clock): measures real wall time
    auto result = corpus.value()->Query(spec);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)  // lint: allow(steady-clock): measures real wall time
                      .count();
    if (!result.ok()) {
      std::fprintf(stderr, "perf_smoke: %s\n",
                   result.status().ToString().c_str());
      return 2;
    }
    if (pruned.wall_s == 0 || wall < pruned.wall_s) {
      pruned.wall_s = wall;
      pruned.result = std::move(result).value();
    }
  }

  double open_all_s = 0;
  std::vector<EventMatches> baseline;
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto start = std::chrono::steady_clock::now();  // lint: allow(steady-clock): measures real wall time
    auto result = OpenAllBaseline(dir, spec);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)  // lint: allow(steady-clock): measures real wall time
                      .count();
    if (!result.ok()) {
      std::fprintf(stderr, "perf_smoke: baseline: %s\n",
                   result.status().ToString().c_str());
      return 2;
    }
    if (open_all_s == 0 || wall < open_all_s) {
      open_all_s = wall;
      baseline = std::move(result).value();
    }
  }

  // Bit-identical results: the pruned result carries every in-scope
  // event (pruned shards with empty lists), so align by event id.
  bool identical = pruned.result.events.size() == baseline.size();
  for (size_t i = 0; identical && i < baseline.size(); ++i) {
    identical = pruned.result.events[i].event_id == baseline[i].event_id &&
                pruned.result.events[i].frames == baseline[i].frames;
  }

  const double speedup = open_all_s / pruned.wall_s;
  // Pruning answers all but one shard from the manifest; even on a
  // loaded single-core CI host that must beat loading every shard.
  const double floor = 1.5;
  const bool pass = identical && speedup >= floor;

  bench::JsonWriter json;
  json.Add("benchmark", "metadata_corpus_smoke")
      .Add("events", kEvents)
      .Add("frames_per_event", kFrames)
      .Add("records", records)
      .Add("batch_ingest_rps", batch_rps)
      .Add("single_ingest_rps", single_rps)
      .Add("batch_ingest_speedup", batch_rps / single_rps)
      .Add("query", FormatCorpusQuery(spec))
      .Add("shards_in_scope", pruned.result.shards_in_scope)
      .Add("shards_pruned", pruned.result.shards_pruned)
      .Add("shards_opened", pruned.result.shards_opened)
      .Add("matched_frames", pruned.result.total_frames)
      .Add("pruned_ms", pruned.wall_s * 1e3)
      .Add("open_all_ms", open_all_s * 1e3)
      .Add("speedup", speedup)
      .Add("speedup_floor", floor)
      .Add("results_identical", identical)
      .Add("pass", pass)
      .Add("note",
           "pruned = manifest time/participant bounds skip shards before "
           "opening them; open_all = load + evaluate every in-scope shard. "
           "Both must return bit-identical frame matches.");
  if (!json.WriteFile(path)) return 2;
  std::printf(
      "perf_smoke: pruned %.2f ms vs open-all %.2f ms (%.1fx, floor "
      "%.1fx), %llu/%d shards pruned, results %s -> %s\n",
      pruned.wall_s * 1e3, open_all_s * 1e3, speedup, floor,
      static_cast<unsigned long long>(pruned.result.shards_pruned), kEvents,
      identical ? "identical" : "DIVERGED", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace dievent

int main(int argc, char** argv) {
  return dievent::bench::BenchMain(argc, argv, dievent::RunPerfSmoke,
                                   dievent::ScaleReport);
}
