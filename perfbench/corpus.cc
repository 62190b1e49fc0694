/// \file corpus.cc
/// corpus_mixed: one EventCorpus on local disk with a ThreadPool of
/// nproc threads, serving a seeded closed-loop mix of four query classes
/// while new events are ingested between queries.
///
/// Inputs: the records of at least 192 seeded events (enough for the
/// requested time), generated from ground-truth pipeline runs before any
/// timing and shifted into disjoint 1000 s time windows, plus a synthetic
/// shot/scene structure per event. The corpus only ever receives
/// RecordBatches, contexts and structures.
///
/// Set-up (repeated five times, median reported): ingest the first 96
/// events into a fresh directory, reopen it with the pool (cold cache)
/// and warm the cache with untimed queries. Timed: queries interleaved
/// with ingest of the remaining events (BeginShard, SetContext,
/// SetVideoStructure, AppendBatch, SealShard), until the requested time
/// is spent. Timed ingest makes every shard durable at its seal, not per
/// journal record; set-up skips syncs and writes the base corpus back
/// once, untimed, before the timed loop. Check: every query result equals
/// the same query on a pool-less EventCorpus opened on the same
/// directory, restricted to the events sealed when the query ran.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "metadata/corpus.h"
#include "metadata/query_parser.h"
#include "sim/scenario.h"

namespace perfbench {

using namespace dievent;

namespace {

constexpr int kMinEvents = 192;
constexpr int kBaseEvents = 96;
constexpr int kFrames = 610;
constexpr double kFps = 15.25;
constexpr double kWindowS = 1000.0;
constexpr int kSetupReps = 5;
constexpr int kWarmupQueries = 200;
constexpr int kMinQueries = 500;
/// One ingest per this much timed time, at a seeded offset within each
/// period: the corpus grows at the same pace whatever the query speed, so
/// a faster query path meets the same corpus sizes.
constexpr double kIngestPeriodS = 0.25;

/// Events to generate: the base, one per ingest period of the requested
/// time, and a margin for the minimum query count. Running out anyway
/// fails a check rather than turning the rest of the run query-only.
int EventsFor(double seconds) {
  return std::max(kMinEvents,
                  kBaseEvents + static_cast<int>(seconds / kIngestPeriodS) + 8);
}

const char* const kVenues[] = {"sala roja", "terrace", "garden", "bistro"};
const char* const kOccasions[] = {"birthday", "dinner", "tasting"};

enum QueryClass { kPruned = 0, kScoped, kScan, kScenes, kNumClasses };
const char* const kClassSpans[kNumClasses] = {
    "metadata.query.pruned", "metadata.query.scoped", "metadata.query.scan",
    "metadata.query.scenes"};

/// One event's ingest input; `records` goes to the store in one
/// AppendBatch.
struct Event {
  std::string id;
  EventContext context;
  VideoStructure structure;
  RecordBatch records;
  size_t num_records = 0;  ///< kept after `records` is released
};

/// Shots of 20..80 frames grouped into scenes of 2..4 shots.
VideoStructure MakeStructure(Rng* rng) {
  VideoStructure vs;
  vs.num_frames = kFrames;
  vs.fps = kFps;
  int f = 0;
  while (f < kFrames) {
    SceneSegment scene;
    const int shots = 2 + static_cast<int>(rng->NextBelow(3));
    for (int s = 0; s < shots && f < kFrames; ++s) {
      Shot shot;
      shot.begin_frame = f;
      shot.end_frame =
          std::min(kFrames, f + 20 + static_cast<int>(rng->NextBelow(61)));
      shot.key_frames = {(shot.begin_frame + shot.end_frame) / 2};
      f = shot.end_frame;
      scene.shots.push_back(shot);
    }
    vs.scenes.push_back(std::move(scene));
  }
  return vs;
}

/// Index into venue x occasion for event `e`. Each block of 12 events
/// holds every (venue, occasion) pair once, in a seeded order, so scope
/// sizes, and with them the cost of scoped and scenes queries, do not
/// drift with the seed.
int ContextSlot(uint64_t seed, int e) {
  std::array<int, 12> slots;
  for (int i = 0; i < 12; ++i) slots[i] = i;
  Rng rng(seed * 7777777ULL + static_cast<uint64_t>(e / 12));
  for (int i = 11; i > 0; --i) std::swap(slots[i], slots[rng.NextBelow(i + 1)]);
  return slots[e % 12];
}

/// One event from a ground-truth run of a seeded random scene.
Status MakeEvent(uint64_t seed, int e, Event* ev) {
  Rng rng(seed * 1000003ULL + static_cast<uint64_t>(e));
  const int n = 3 + e % 6;
  const DiningScene scene = MakeRandomScenario(n, kFrames, kFps, &rng);
  PipelineOptions opt;
  opt.mode = PipelineMode::kGroundTruth;
  opt.parse_video = false;
  MetadataRepository repo;
  DIEVENT_RETURN_NOT_OK(DiEventPipeline(&scene, opt).Run(&repo).status());

  char id[32];
  std::snprintf(id, sizeof(id), "event-%03d", e);
  ev->id = id;
  ev->context.event_id = id;
  const int slot = ContextSlot(seed, e);
  ev->context.location = kVenues[slot % 4];
  ev->context.occasion = kOccasions[slot / 4];
  ev->context.date = "2018-04-" + std::to_string(10 + rng.NextBelow(20));
  ev->context.num_participants = n;
  ev->structure = MakeStructure(&rng);
  const double offset = e * kWindowS;
  ev->records.lookat = repo.lookat_records();
  ev->records.emotions = repo.emotion_records();
  ev->records.overall = repo.overall_records();
  for (auto& r : ev->records.lookat) r.timestamp_s += offset;
  for (auto& r : ev->records.emotions) r.timestamp_s += offset;
  for (auto& r : ev->records.overall) r.timestamp_s += offset;
  ev->num_records = ev->records.TotalRecords();
  return Status::OK();
}

/// The default filesystem with Sync and SyncDir acknowledged but not
/// performed. Set-up writes the base corpus through it: the base corpus
/// is only starting state, written back once by SyncFilesystem, and
/// set-up time should follow the work rather than the shared disk's
/// sync latency.
class NoSyncFileSystem : public FileSystem {
 public:
  Result<std::unique_ptr<WritableFile>> OpenForAppend(
      const std::string& path) override {
    return Wrap(inner_->OpenForAppend(path));
  }
  Result<std::unique_ptr<WritableFile>> OpenForWrite(
      const std::string& path) override {
    return Wrap(inner_->OpenForWrite(path));
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return inner_->ReadFile(path);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return inner_->FileSize(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return inner_->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  Status RemoveDir(const std::string& path) override {
    return inner_->RemoveDir(path);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return inner_->Truncate(path, size);
  }
  Status CreateDir(const std::string& path) override {
    return inner_->CreateDir(path);
  }
  bool Exists(const std::string& path) override { return inner_->Exists(path); }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return inner_->ListDir(dir);
  }
  Status SyncDir(const std::string&) override { return Status::OK(); }

 private:
  class File : public WritableFile {
   public:
    explicit File(std::unique_ptr<WritableFile> inner)
        : inner_(std::move(inner)) {}
    Status Append(std::string_view data) override {
      return inner_->Append(data);
    }
    Status Sync() override { return Status::OK(); }
    Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<WritableFile> inner_;
  };

  static Result<std::unique_ptr<WritableFile>> Wrap(
      Result<std::unique_ptr<WritableFile>> file) {
    if (!file.ok()) return file.status();
    return std::unique_ptr<WritableFile>(
        std::make_unique<File>(std::move(file).TakeValue()));
  }

  FileSystem* inner_ = FileSystem::Default();
};

/// Writes back every dirty page of the filesystem holding `dir`.
bool SyncFilesystem(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = syncfs(fd) == 0;
  close(fd);
  return ok;
}

/// Filesystem traffic of SealShard calls, from a TimedFileSystem.
struct SealIo {
  const IoCounters* io = nullptr;
  uint64_t manifest_bytes = 0;
  uint64_t syncs = 0;
};

/// Ingest of one event, with spans around the corpus and store calls.
Status Ingest(EventCorpus* corpus, const Event& ev, SpanRecorder* rec,
              SealIo* seal_io = nullptr) {
  DurableEventStore* store = nullptr;
  {
    ScopedSpan span(rec, "metadata.begin_shard");
    DIEVENT_ASSIGN_OR_RETURN(store, corpus->BeginShard(ev.id));
    DIEVENT_RETURN_NOT_OK(store->SetContext(ev.context));
    DIEVENT_RETURN_NOT_OK(store->SetFps(kFps));
    DIEVENT_RETURN_NOT_OK(store->SetVideoStructure(ev.structure));
  }
  {
    ScopedSpan span(rec, "metadata.append_batch");
    DIEVENT_RETURN_NOT_OK(store->AppendBatch(ev.records));
  }
  const IoCounters* io = seal_io != nullptr ? seal_io->io : nullptr;
  const uint64_t manifest0 =
      io != nullptr ? io->AppendBytes(FileKind::kManifest) : 0;
  const uint64_t syncs0 = io != nullptr ? io->AllSyncs() : 0;
  ScopedSpan span(rec, "metadata.seal");
  DIEVENT_RETURN_NOT_OK(corpus->SealShard(ev.id));
  if (io != nullptr) {
    seal_io->manifest_bytes += io->AppendBytes(FileKind::kManifest) - manifest0;
    seal_io->syncs += io->AllSyncs() - syncs0;
  }
  return Status::OK();
}

struct QueryText {
  QueryClass cls;
  std::string text;
};

/// The seeded operation sequence. The class mix and the ingest rate are
/// exact per block and period, so every seed offers the same load; the
/// seed picks the order within blocks, every query's parameters and the
/// ingest offsets.
class OpSchedule {
 public:
  explicit OpSchedule(uint64_t seed)
      : rng_(seed),
        ingest_rng_(seed + 1),
        next_ingest_s_(ingest_rng_.NextDouble() * kIngestPeriodS) {}

  Rng* rng() { return &rng_; }

  /// True once per ingest period, when `timed_s` passes its offset.
  bool IngestDue(double timed_s) {
    if (timed_s < next_ingest_s_) return false;
    ++period_;
    next_ingest_s_ = (period_ + ingest_rng_.NextDouble()) * kIngestPeriodS;
    return true;
  }

  /// Blocks of ten queries in the ratio 2:2:3:3 (pruned, scoped, scan,
  /// scenes), shuffled. The cheap classes stay under 50%, so the median
  /// latency falls inside the scenes class rather than on the boundary
  /// between two classes.
  QueryClass NextClass() {
    if (pos_ == mix_.size()) {
      for (size_t i = mix_.size() - 1; i > 0; --i) {
        std::swap(mix_[i], mix_[rng_.NextBelow(i + 1)]);
      }
      pos_ = 0;
    }
    return mix_[pos_++];
  }

 private:
  Rng rng_;
  Rng ingest_rng_;
  double next_ingest_s_ = 0;
  int period_ = 0;
  std::array<QueryClass, 10> mix_ = {kPruned, kPruned, kScoped, kScoped,
                                     kScan,   kScan,   kScan,   kScenes,
                                     kScenes, kScenes};
  size_t pos_ = mix_.size();
};

/// A seeded query of class `cls` over the `sealed` events sealed so far.
/// Parameters come from small sets, so texts repeat and the oracle
/// evaluates each distinct text once.
QueryText MakeQuery(QueryClass cls, Rng* rng, int sealed) {
  const int a = 1 + static_cast<int>(rng->NextBelow(3));
  const int b = 1 + (a + static_cast<int>(rng->NextBelow(2))) % 3;
  std::string text;
  switch (cls) {
    case kPruned: {
      const long long e = static_cast<long long>(rng->NextBelow(sealed));
      const long long t0 =
          e * static_cast<long long>(kWindowS) + 5 * rng->NextBelow(7);
      text = "events : time[" + std::to_string(t0) + ", " +
             std::to_string(t0 + 5) + ") & ec(P" + std::to_string(a) +
             ", P" + std::to_string(b) + ")";
      break;
    }
    case kScoped: {
      text = std::string("events where venue = \"") +
             kVenues[rng->NextBelow(4)] + "\" & participants >= " +
             std::to_string(3 + rng->NextBelow(4)) + " : ";
      text += rng->NextBool() ? "look(P" + std::to_string(a) + ", P" +
                                    std::to_string(b) + ")"
                              : "watched(P" + std::to_string(a) + ")";
      break;
    }
    case kScan: {
      static const char* const kFeel[] = {"happy", "neutral", "sad"};
      text = rng->NextBool()
                 ? "events : feel(P" + std::to_string(a) + ", " +
                       kFeel[rng->NextBelow(3)] + ")"
                 : "events : oh >= 0." + std::to_string(4 + rng->NextBelow(5));
      break;
    }
    case kScenes:
    case kNumClasses:
      text = std::string("events where occasion = \"") +
             kOccasions[rng->NextBelow(3)] + "\" : watched(P" +
             std::to_string(a) + ")";
      break;
  }
  return {cls, text};
}

CorpusQueryOptions OptionsFor(QueryClass cls) {
  CorpusQueryOptions o;
  o.scenes = cls == kScenes;
  return o;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001b3ULL;
}

uint64_t Digest(const EventMatches& m) {
  uint64_t h = 1469598103934665603ULL;
  for (const FrameMatch& f : m.frames) {
    uint64_t bits = 0;
    std::memcpy(&bits, &f.timestamp_s, sizeof(bits));
    h = Mix(Mix(h, static_cast<uint64_t>(f.frame)), bits);
  }
  for (const SegmentMatch& s : m.scenes) {
    uint64_t bits = 0;
    std::memcpy(&bits, &s.coverage, sizeof(bits));
    h = Mix(Mix(Mix(Mix(h, static_cast<uint64_t>(s.index)),
                    static_cast<uint64_t>(s.begin_frame)),
                static_cast<uint64_t>(s.end_frame)),
            bits);
  }
  return h;
}

/// What a timed query returned, kept for the oracle check: a digest of
/// its per-event answers folded in result order.
struct Answer {
  int text = 0;    ///< index into the distinct texts
  int sealed = 0;  ///< events sealed when it ran
  size_t events = 0;
  uint64_t digest = 0;
};

uint64_t Fold(uint64_t h, const std::string& event_id, uint64_t digest) {
  return Mix(Mix(h, std::hash<std::string>{}(event_id)), digest);
}

Answer MakeAnswer(int text, int sealed, const CorpusQueryResult& r) {
  Answer a{text, sealed, r.events.size(), 0};
  for (const EventMatches& m : r.events) a.digest = Fold(a.digest, m.event_id, Digest(m));
  return a;
}

/// Re-runs every distinct query on a pool-less corpus opened on `dir`
/// and compares each answer with the oracle's, restricted to the events
/// that were sealed when the answer was produced.
void CheckAnswers(const std::string& dir, const std::vector<QueryText>& texts,
                  const std::vector<Answer>& answers, Outcome* out) {
  Result<std::unique_ptr<EventCorpus>> oracle = EventCorpus::Open(dir);
  out->Check(oracle.ok(), "open oracle corpus");
  if (!oracle.ok()) return;
  std::map<std::string, int> seal_order;
  for (const ShardIndexEntry& e : oracle.value()->shards()) {
    seal_order.emplace(e.event_id, static_cast<int>(seal_order.size()));
  }
  struct Entry {
    int seal = 0;
    std::string event_id;
    uint64_t digest = 0;
  };
  std::vector<std::vector<Entry>> expected;
  for (const QueryText& q : texts) {
    Result<CorpusQuerySpec> spec = ParseCorpusQuery(q.text);
    Result<CorpusQueryResult> r =
        spec.ok() ? oracle.value()->Query(spec.value(), OptionsFor(q.cls))
                  : Result<CorpusQueryResult>(spec.status());
    out->Check(r.ok(), "oracle query " + q.text);
    std::vector<Entry> entries;
    if (r.ok()) {
      for (const EventMatches& m : r.value().events) {
        auto it = seal_order.find(m.event_id);
        entries.push_back({it == seal_order.end() ? -1 : it->second,
                           m.event_id, Digest(m)});
      }
    }
    expected.push_back(std::move(entries));
  }
  for (const Answer& a : answers) {
    Answer want{a.text, a.sealed, 0, 0};
    for (const Entry& e : expected[a.text]) {
      if (e.seal < 0 || e.seal >= a.sealed) continue;
      ++want.events;
      want.digest = Fold(want.digest, e.event_id, e.digest);
    }
    out->Check(want.events == a.events && want.digest == a.digest,
               "query equals the pool-less oracle: " + texts[a.text].text);
  }
}

}  // namespace

void RunCorpus(const Args& args, Outcome* out) {
  // --- inputs (the benchmark's own work; not part of set-up time) -------
  const int num_events = EventsFor(args.seconds);
  std::vector<Event> inputs(num_events);
  {
    const double t0 = NowS();
    std::vector<Status> made(num_events, Status::OK());
    ThreadPool gen(args.nproc);
    gen.ParallelFor(num_events, [&](int e) {
      made[e] = MakeEvent(args.seed, e, &inputs[e]);
    });
    for (const Status& s : made) {
      out->Check(s.ok(), "input generation: " + s.ToString());
      if (!s.ok()) return;
    }
    long long records = 0;
    for (const Event& ev : inputs) {
      records += static_cast<long long>(ev.num_records);
    }
    std::printf("perfbench: inputs: %d events, %lld records in %.3f s, "
                "peak RSS %.1f MB\n",
                num_events, records, NowS() - t0, PeakRssMb());
  }

  SpanRecorder rec(args.trace);
  TimedFileSystem timed_fs(FileSystem::Default(), &rec);
  ThreadPool pool(args.nproc);
  // Shards are synced at their seal: SealShard's checkpoint syncs the
  // journal, then the snapshot and the manifest are synced. Unsealed
  // records are invisible to queries, so a sync per journal record would
  // only add the shared disk's latency jitter to ingest time.
  CorpusOptions serve_options;
  serve_options.store.journal.fsync = FsyncPolicy::kNever;
  serve_options.pool = &pool;
  if (args.trace) serve_options.fs = &timed_fs;
  NoSyncFileSystem no_sync_fs;
  CorpusOptions base_options;
  base_options.store.journal.fsync = FsyncPolicy::kNever;
  base_options.fs = &no_sync_fs;

  // --- set-up: base corpus, cold reopen, cache warm-up -----------------
  std::vector<double> setup_reps;
  std::unique_ptr<EventCorpus> corpus;
  std::string dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    corpus.reset();
    if (!dir.empty()) RemoveTree(dir);
    dir = args.work_dir + "/corpus-" + std::to_string(rep);
    const double t0 = NowS();
    {
      Result<std::unique_ptr<EventCorpus>> writer =
          EventCorpus::Open(dir, base_options);
      out->Check(writer.ok(), "open corpus for base ingest");
      if (!writer.ok()) return;
      for (int e = 0; e < kBaseEvents; ++e) {
        const Status s = Ingest(writer.value().get(), inputs[e], nullptr);
        out->Check(s.ok(), "base ingest: " + s.ToString());
        if (!s.ok()) return;
      }
    }
    Result<std::unique_ptr<EventCorpus>> opened =
        EventCorpus::Open(dir, serve_options);
    out->Check(opened.ok(), "reopen corpus");
    if (!opened.ok()) return;
    corpus = std::move(opened).TakeValue();
    OpSchedule warm(args.seed + 17);
    for (int i = 0; i < kWarmupQueries; ++i) {
      const QueryText q = MakeQuery(warm.NextClass(), warm.rng(), kBaseEvents);
      Result<CorpusQuerySpec> spec = ParseCorpusQuery(q.text);
      const bool ok =
          spec.ok() && corpus->Query(spec.value(), OptionsFor(q.cls)).ok();
      out->Check(ok, "warm-up query " + q.text);
      if (!ok) return;
    }
    setup_reps.push_back(NowS() - t0);
  }
  // The base events' records are in the corpus now; freeing them leaves
  // peak_rss_mb to the corpus cache rather than the benchmark's inputs.
  for (int e = 0; e < kBaseEvents; ++e) inputs[e].records = RecordBatch();
  std::printf("perfbench: peak RSS after set-up %.1f MB\n", PeakRssMb());
  // Write back the base corpus now (set-up did not sync it), so the
  // kernel's delayed writeback of it does not land on the timed ingests'
  // syncs at a random moment.
  out->Check(SyncFilesystem(dir), "sync the base corpus to disk");

  // --- timed closed loop ------------------------------------------------
  OpSchedule ops(args.seed * 7919 + 3);
  std::vector<QueryText> texts;
  std::map<std::string, int> text_index;
  std::vector<Answer> answers;
  Measured m;
  m.Reserve(1 << 17);
  answers.reserve(1 << 17);
  m.setup_reps_s = setup_reps;
  int sealed = kBaseEvents;
  long long queries = 0;
  uint64_t in_scope = 0, pruned = 0, opened_shards = 0;
  uint64_t query_read_bytes = 0;
  const IoCounters& io = timed_fs.counters();
  SealIo seal_io{&io};

  const double start = NowS();
  while (queries < kMinQueries || NowS() - start < args.seconds) {
    if (ops.IngestDue(m.timed_s)) {
      if (sealed == num_events) {
        out->Check(false, "ran out of input events to ingest");
        break;
      }
      Event& ev = inputs[sealed];
      const double c0 = ProcessCpuS();
      const double t0 = NowS();
      const Status s = Ingest(corpus.get(), ev, &rec, &seal_io);
      const double dt = NowS() - t0;
      m.cpu_s += ProcessCpuS() - c0;
      m.timed_s += dt;
      out->Check(s.ok(), "ingest " + ev.id + ": " + s.ToString());
      if (!s.ok()) break;
      ++sealed;
      m.record_rates.push_back(ev.num_records / dt);
      ev.records = RecordBatch();
      continue;
    }
    const QueryText q = MakeQuery(ops.NextClass(), ops.rng(), sealed);
    const uint64_t read0 = io.read_bytes.load();
    const double c0 = ProcessCpuS();
    const double t0 = NowS();
    Result<CorpusQuerySpec> spec = [&] {
      ScopedSpan span(&rec, "metadata.parse");
      return ParseCorpusQuery(q.text);
    }();
    Result<CorpusQueryResult> result = [&]() -> Result<CorpusQueryResult> {
      if (!spec.ok()) return spec.status();
      ScopedSpan span(&rec, kClassSpans[q.cls]);
      return corpus->Query(spec.value(), OptionsFor(q.cls));
    }();
    const double t2 = NowS();
    m.cpu_s += ProcessCpuS() - c0;
    m.timed_s += t2 - t0;
    ++queries;
    out->Check(result.ok(), "query " + q.text + ": " + result.status().ToString());
    if (!result.ok()) break;
    m.done_at_s.push_back(m.timed_s);
    m.latencies_ms.push_back(1e3 * (t2 - t0));
    query_read_bytes += io.read_bytes.load() - read0;
    in_scope += result.value().shards_in_scope;
    pruned += result.value().shards_pruned;
    opened_shards += result.value().shards_opened;

    auto [it, inserted] =
        text_index.emplace(q.text, static_cast<int>(texts.size()));
    if (inserted) texts.push_back(q);
    answers.push_back(MakeAnswer(it->second, sealed, result.value()));
  }
  const int seals = sealed - kBaseEvents;
  std::printf("perfbench: %lld queries (%zu distinct), %d events ingested, "
              "%d sealed\n",
              queries, texts.size(), seals, sealed);

  corpus.reset();
  CheckAnswers(dir, texts, answers, out);
  if (!args.trace) {
    out->AddEndToEnd(std::move(m));
    return;
  }
  const double nq = static_cast<double>(std::max(1LL, queries));
  LayerCounts counts;
  counts["metadata.prune_ratio"] =
      in_scope > 0 ? static_cast<double>(pruned) / in_scope : 0;
  counts["metadata.shards_opened_per_query"] = opened_shards / nq;
  counts["io.read_bytes_per_query"] = query_read_bytes / nq;
  counts["io.manifest_bytes_per_seal"] =
      seals > 0 ? static_cast<double>(seal_io.manifest_bytes) / seals : 0;
  counts["io.syncs_per_seal"] =
      seals > 0 ? static_cast<double>(seal_io.syncs) / seals : 0;
  out->AddPerLayer(rec, counts, args.trace_path);
}

}  // namespace perfbench
