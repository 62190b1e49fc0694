// Tests for the sharded event corpus: shard lifecycle (begin / resume /
// seal / register), manifest durability, scope filtering, shard
// pruning exactness, and the acceptance drill — a cross-event query
// over a 100-event corpus must be bit-identical to querying each
// event's repository serially, with or without a thread pool.

#include "metadata/corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "metadata/query_parser.h"

namespace dievent {
namespace {

std::string FreshCorpusDir(const std::string& name) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = testing::TempDir() + "/" + name;
  if (fs->Exists(dir)) {
    auto names = fs->ListDir(dir);
    EXPECT_TRUE(names.ok());
    for (const std::string& n : names.value()) {
      const std::string path = JoinPath(dir, n);
      auto nested = fs->ListDir(path);
      if (nested.ok()) {  // a shard directory: wipe contents, then rmdir
        for (const std::string& inner : nested.value()) {
          EXPECT_TRUE(fs->Remove(JoinPath(path, inner)).ok());
        }
        EXPECT_TRUE(fs->RemoveDir(path).ok());
      } else {
        EXPECT_TRUE(fs->Remove(path).ok());
      }
    }
  }
  return dir;
}

EventContext Context(int event) {
  EventContext ctx;
  ctx.event_id = StrFormat("event-%03d", event);
  ctx.location = event % 2 == 0 ? "sala roja" : "terrace";
  ctx.occasion = event % 3 == 0 ? "birthday" : "dinner";
  ctx.date = StrFormat("2026-08-%02d", event % 28 + 1);
  ctx.num_participants = 3 + event % 3;
  return ctx;
}

/// One event's records: `frames` frames starting at `first_frame`, in
/// the event's own time window (disjoint across events), look-at edges
/// varying per (event, frame).
RecordBatch EventBatch(int event, int frames, int first_frame = 0) {
  RecordBatch batch;
  const int n = 3 + event % 3;
  const double offset = event * 100.0;
  for (int i = 0; i < frames; ++i) {
    const int f = first_frame + i;
    LookAtMatrix m(n);
    m.Set(0, 1 + (event + f) % (n - 1), true);
    if ((event + f) % 2 == 0) m.Set(1, 0, true);
    batch.lookat.push_back(
        LookAtRecord::FromMatrix(f, offset + f * 0.5, m));
    OverallEmotionRecord oe;
    oe.frame = f;
    oe.timestamp_s = offset + f * 0.5;
    oe.overall_happiness = (event % 10) * 0.1 + f * 0.01;
    oe.mean_valence = 0.2;
    oe.observed = n;
    batch.overall.push_back(oe);
  }
  return batch;
}

void IngestAndSeal(EventCorpus* corpus, int event, int frames) {
  const EventContext ctx = Context(event);
  auto store = corpus->BeginShard(ctx.event_id);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store.value()->SetContext(ctx).ok());
  ASSERT_TRUE(store.value()->SetFps(2.0).ok());
  ASSERT_TRUE(store.value()->AppendBatch(EventBatch(event, frames)).ok());
  Status sealed = corpus->SealShard(ctx.event_id);
  ASSERT_TRUE(sealed.ok()) << sealed.ToString();
}

/// The serial oracle: load every in-scope shard directly and evaluate
/// the frame query against each repository, no corpus machinery.
std::vector<EventMatches> SerialOracle(const std::string& dir,
                                       const EventCorpus& corpus,
                                       const CorpusQuerySpec& spec) {
  std::vector<EventMatches> events;
  for (const ShardIndexEntry& entry : corpus.shards()) {
    if (!EventCorpus::ShardInScope(entry, spec.scope)) continue;
    auto repo = DurableEventStore::LoadState(FileSystem::Default(),
                                            JoinPath(dir, entry.dir));
    EXPECT_TRUE(repo.ok()) << repo.status().ToString();
    EventMatches em;
    em.event_id = entry.event_id;
    em.shard_dir = entry.dir;
    em.frames = Query(&repo.value(), spec.frame).Execute();
    events.push_back(std::move(em));
  }
  std::sort(events.begin(), events.end(),
            [](const EventMatches& a, const EventMatches& b) {
              return a.event_id != b.event_id ? a.event_id < b.event_id
                                              : a.shard_dir < b.shard_dir;
            });
  return events;
}

void ExpectSameMatches(const CorpusQueryResult& got,
                       const std::vector<EventMatches>& want) {
  ASSERT_EQ(got.events.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.events[i].event_id, want[i].event_id);
    EXPECT_EQ(got.events[i].shard_dir, want[i].shard_dir);
    EXPECT_EQ(got.events[i].frames, want[i].frames)
        << "event " << want[i].event_id;
  }
}

TEST(CorpusTest, SealMakesShardVisibleAndDurable) {
  const std::string dir = FreshCorpusDir("corpus_seal");
  {
    auto corpus = EventCorpus::Open(dir);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    EXPECT_TRUE(corpus.value()->shards().empty());
    IngestAndSeal(corpus.value().get(), 0, 10);
    auto shards = corpus.value()->shards();
    ASSERT_EQ(shards.size(), 1u);
    EXPECT_EQ(shards[0].event_id, "event-000");
    EXPECT_EQ(shards[0].records, 20u);  // 10 look-at + 10 overall
    ASSERT_TRUE(shards[0].time_bounds.has_value());
    EXPECT_DOUBLE_EQ(shards[0].time_bounds->first, 0.0);
    EXPECT_DOUBLE_EQ(shards[0].time_bounds->second, 4.5);
    EXPECT_EQ(shards[0].max_lookat_n, 3);
  }
  // A fresh corpus instance sees the same manifest from disk.
  auto corpus = EventCorpus::Open(dir);
  ASSERT_TRUE(corpus.ok());
  ASSERT_EQ(corpus.value()->shards().size(), 1u);
  auto result = corpus.value()->Query(CorpusQuerySpec{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().events.size(), 1u);
  EXPECT_EQ(result.value().events[0].frames.size(), 10u);
}

TEST(CorpusTest, BeginShardRejectsDuplicatesAndSealedEvents) {
  const std::string dir = FreshCorpusDir("corpus_dup");
  auto corpus = EventCorpus::Open(dir);
  ASSERT_TRUE(corpus.ok());
  auto store = corpus.value()->BeginShard("event-000");
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(corpus.value()->BeginShard("event-000").status().code() ==
              StatusCode::kAlreadyExists);
  ASSERT_TRUE(store.value()->SetContext(Context(0)).ok());
  ASSERT_TRUE(corpus.value()->SealShard("event-000").ok());
  EXPECT_TRUE(corpus.value()->BeginShard("event-000").status().code() ==
              StatusCode::kAlreadyExists);
  // Sealed shards are read-only.
  EXPECT_TRUE(corpus.value()->ResumeShard("event-000").status().code() ==
              StatusCode::kFailedPrecondition);
  EXPECT_TRUE(corpus.value()->SealShard("event-000").code() ==
              StatusCode::kNotFound);
}

TEST(CorpusTest, ResumeRecoversAnUnsealedShardAcrossReopen) {
  const std::string dir = FreshCorpusDir("corpus_resume");
  {
    auto corpus = EventCorpus::Open(dir);
    ASSERT_TRUE(corpus.ok());
    auto store = corpus.value()->BeginShard("event-007");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->SetContext(Context(7)).ok());
    ASSERT_TRUE(store.value()->AppendBatch(EventBatch(7, 5)).ok());
    // Corpus destroyed without sealing: the shard stays invisible but
    // its records are journaled.
  }
  auto corpus = EventCorpus::Open(dir);
  ASSERT_TRUE(corpus.ok());
  EXPECT_TRUE(corpus.value()->shards().empty());
  EXPECT_EQ(corpus.value()->ResumeShard("event-404").status().code(),
            StatusCode::kNotFound);
  auto resumed = corpus.value()->ResumeShard("event-007");
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value()->repository().lookat_records().size(), 5u);
  ASSERT_TRUE(resumed.value()->AppendBatch(EventBatch(7, 5, 5)).ok());
  ASSERT_TRUE(corpus.value()->SealShard("event-007").ok());
  auto shards = corpus.value()->shards();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].event_id, "event-007");
}

TEST(CorpusTest, RegisterShardPublishesExternalStoreAndRefreshes) {
  const std::string dir = FreshCorpusDir("corpus_register");
  auto corpus = EventCorpus::Open(dir);
  ASSERT_TRUE(corpus.ok());

  // An externally written store inside the corpus root (what the fleet
  // scheduler produces per tenant).
  const std::string store_dir = JoinPath(dir, "tenant-3");
  {
    auto store = DurableEventStore::Open(store_dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->SetContext(Context(3)).ok());
    ASSERT_TRUE(store.value()->AppendBatch(EventBatch(3, 8)).ok());
    ASSERT_TRUE(store.value()->Close().ok());
  }
  ASSERT_TRUE(corpus.value()->RegisterShard(store_dir).ok());
  auto shards = corpus.value()->shards();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].dir, "tenant-3");  // root-relative: relocatable
  EXPECT_EQ(shards[0].event_id, "event-003");
  EXPECT_EQ(shards[0].max_lookat_n, 3 + 3 % 3);

  // Re-registering after more writes refreshes the entry in place.
  {
    auto store = DurableEventStore::Open(store_dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->AppendBatch(EventBatch(3, 8, 8)).ok());
    ASSERT_TRUE(store.value()->Close().ok());
  }
  ASSERT_TRUE(corpus.value()->RegisterShard(store_dir).ok());
  shards = corpus.value()->shards();
  ASSERT_EQ(shards.size(), 1u);
  auto result = corpus.value()->Query(CorpusQuerySpec{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().events.size(), 1u);
  EXPECT_EQ(result.value().events[0].frames.size(), 16u);
}

TEST(CorpusTest, RegisterShardRefusesAMissingStoreDirectory) {
  const std::string dir = FreshCorpusDir("corpus_register_missing");
  auto corpus = EventCorpus::Open(dir);
  ASSERT_TRUE(corpus.ok());
  // A relative path resolves against the corpus root, where no such
  // store exists: the shard is refused, not published empty.
  for (const std::string& store_dir :
       {std::string("tenant-9"), JoinPath(dir, "tenant-9")}) {
    Status s = corpus.value()->RegisterShard(store_dir);
    EXPECT_EQ(s.code(), StatusCode::kNotFound) << store_dir << ": " << s;
  }
  EXPECT_TRUE(corpus.value()->shards().empty());
  // An existing store with no records is a real, empty shard.
  ASSERT_TRUE(FileSystem::Default()->CreateDir(JoinPath(dir, "tenant-9")).ok());
  EXPECT_TRUE(corpus.value()->RegisterShard("tenant-9").ok());
  EXPECT_EQ(corpus.value()->shards().size(), 1u);
}

TEST(CorpusTest, RootWithTrailingSlashStillRecordsRelativeShardPaths) {
  const std::string dir = FreshCorpusDir("corpus_trailing_slash");
  auto corpus = EventCorpus::Open(dir + "//");
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus.value()->dir(), dir);
  // The store path as the fleet builds it from `--corpus dir/`: the root,
  // spelled with its slash, joined with the tenant's name.
  const std::string store_dir = JoinPath(dir + "/", "alpha");
  {
    auto store = DurableEventStore::Open(store_dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->SetContext(Context(1)).ok());
    ASSERT_TRUE(store.value()->AppendBatch(EventBatch(1, 4)).ok());
    ASSERT_TRUE(store.value()->Close().ok());
  }
  ASSERT_TRUE(corpus.value()->RegisterShard(store_dir).ok());
  auto shards = corpus.value()->shards();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].dir, "alpha");
}

TEST(CorpusTest, OpenRefusesARegularFile) {
  const std::string dir = FreshCorpusDir("corpus_regular_file");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  const std::string file = JoinPath(dir, "afile");
  ASSERT_TRUE(AtomicWriteFile(fs, file, "not a corpus").ok());
  auto corpus = EventCorpus::Open(file);
  EXPECT_EQ(corpus.status().code(), StatusCode::kIoError)
      << corpus.status();
  // CreateDir itself: an existing directory is fine, a file is not.
  EXPECT_TRUE(fs->CreateDir(dir).ok());
  EXPECT_EQ(fs->CreateDir(file).code(), StatusCode::kIoError);
  EXPECT_EQ(fs->CreateDir(JoinPath(file, "below")).code(),
            StatusCode::kIoError);
}

TEST(CorpusTest, ScopePredicatesFilterAgainstTheManifestAlone) {
  const std::string dir = FreshCorpusDir("corpus_scope");
  auto corpus = EventCorpus::Open(dir);
  ASSERT_TRUE(corpus.ok());
  for (int e = 0; e < 6; ++e) IngestAndSeal(corpus.value().get(), e, 4);

  auto query = [&](const std::string& text) {
    auto spec = ParseCorpusQuery(text);
    EXPECT_TRUE(spec.ok()) << text;
    auto result = corpus.value()->Query(spec.value());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.value();
  };

  EXPECT_EQ(query("events").events.size(), 6u);
  EXPECT_EQ(query("events where venue = \"sala roja\"").events.size(), 3u);
  EXPECT_EQ(query("events where occasion = \"birthday\"").events.size(),
            2u);
  EXPECT_EQ(query("events where event = \"event-004\"").events.size(), 1u);
  EXPECT_EQ(query("events where date = \"2026-08-02\"").events.size(), 1u);
  // num_participants cycles 3,4,5: exactly 4 of 6 events have >= 4.
  EXPECT_EQ(query("events where participants >= 4").events.size(), 4u);
  EXPECT_EQ(
      query("events where venue = \"terrace\" & participants >= 5")
          .events.size(),
      1u);
  EXPECT_EQ(query("events where venue = \"atlantis\"").events.size(), 0u);
}

TEST(CorpusTest, PruningRulesAreExact) {
  ShardIndexEntry entry;
  entry.time_bounds = {{100.0, 149.5}};
  entry.max_lookat_n = 4;

  // Disjoint time ranges prune; overlapping ones do not (inclusive
  // bounds, half-open query interval).
  QuerySpec spec;
  spec.time_range = {{0.0, 100.0}};  // [0, 100) vs [100, 149.5]
  EXPECT_TRUE(EventCorpus::CanPruneShard(entry, spec));
  spec.time_range = {{149.6, 500.0}};
  EXPECT_TRUE(EventCorpus::CanPruneShard(entry, spec));
  spec.time_range = {{149.5, 500.0}};  // touches the last record
  EXPECT_FALSE(EventCorpus::CanPruneShard(entry, spec));
  spec.time_range = {{0.0, 100.1}};
  EXPECT_FALSE(EventCorpus::CanPruneShard(entry, spec));

  // Participant references beyond the largest look-at matrix prune.
  spec = QuerySpec{};
  spec.looking.push_back({0, 3});  // P4: the matrix has ids 0..3
  EXPECT_FALSE(EventCorpus::CanPruneShard(entry, spec));
  spec.looking.back() = {0, 4};  // P5: no record can satisfy it
  EXPECT_TRUE(EventCorpus::CanPruneShard(entry, spec));
  spec = QuerySpec{};
  spec.anyone_at.push_back(4);
  EXPECT_TRUE(EventCorpus::CanPruneShard(entry, spec));
  // `feeling` must NOT prune: emotion records carry their own ids,
  // unbounded by the look-at matrix.
  spec = QuerySpec{};
  spec.feeling.push_back({9, Emotion::kHappy});
  EXPECT_FALSE(EventCorpus::CanPruneShard(entry, spec));

  // A shard with no look-at records can never match a frame query.
  ShardIndexEntry empty;
  EXPECT_TRUE(EventCorpus::CanPruneShard(empty, QuerySpec{}));
}

TEST(CorpusTest, HundredEventQueryIsBitIdenticalToSerialOracle) {
  const std::string dir = FreshCorpusDir("corpus_hundred");
  ThreadPool pool(4);
  CorpusOptions options;
  options.pool = &pool;
  auto corpus = EventCorpus::Open(dir, options);
  ASSERT_TRUE(corpus.ok());
  for (int e = 0; e < 100; ++e) IngestAndSeal(corpus.value().get(), e, 6);
  ASSERT_EQ(corpus.value()->shards().size(), 100u);

  const char* queries[] = {
      "events",
      "events : look(P1, P2)",
      "events : time[1000, 2000)",
      "events : time[1000, 2000) & look(P2, P1)",
      "events where venue = \"terrace\" : look(P1, P3)",
      "events where participants >= 5 : oh >= 0.5",
      "events : watched(P1) & valence >= 0",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    auto spec = ParseCorpusQuery(text);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    const auto oracle = SerialOracle(dir, *corpus.value(), spec.value());

    // Parallel fan-out over the pool.
    auto parallel = corpus.value()->Query(spec.value());
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectSameMatches(parallel.value(), oracle);
    EXPECT_EQ(parallel.value().shards_pruned +
                  parallel.value().shards_opened,
              parallel.value().shards_in_scope);

    // Serial evaluation (no pool) through a fresh corpus: same bytes.
    auto serial_corpus = EventCorpus::Open(dir);
    ASSERT_TRUE(serial_corpus.ok());
    auto serial = serial_corpus.value()->Query(spec.value());
    ASSERT_TRUE(serial.ok());
    ExpectSameMatches(serial.value(), oracle);
    EXPECT_EQ(serial.value().shards_pruned,
              parallel.value().shards_pruned);
  }

  // The disjoint-window query actually exercised pruning.
  auto spec = ParseCorpusQuery("events : time[1000, 2000)");
  ASSERT_TRUE(spec.ok());
  auto result = corpus.value()->Query(spec.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().shards_in_scope, 100u);
  EXPECT_EQ(result.value().shards_opened, 10u);
  EXPECT_EQ(result.value().shards_pruned, 90u);
  EXPECT_EQ(result.value().total_frames, 60u);
}

TEST(CorpusTest, SceneRollUpDisablesPruningAtZeroCoverage) {
  const std::string dir = FreshCorpusDir("corpus_scenes");
  auto corpus = EventCorpus::Open(dir);
  ASSERT_TRUE(corpus.ok());
  for (int e = 0; e < 3; ++e) {
    const EventContext ctx = Context(e);
    auto store = corpus.value()->BeginShard(ctx.event_id);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->SetContext(ctx).ok());
    ASSERT_TRUE(store.value()->AppendBatch(EventBatch(e, 6)).ok());
    VideoStructure vs;
    vs.num_frames = 6;
    vs.fps = 2.0;
    SceneSegment scene;
    scene.shots.push_back(Shot{0, 6, {0}});
    vs.scenes.push_back(scene);
    ASSERT_TRUE(store.value()->SetVideoStructure(vs).ok());
    ASSERT_TRUE(corpus.value()->SealShard(ctx.event_id).ok());
  }

  // A time window over event 1 only: events 0 and 2 are prunable.
  auto spec = ParseCorpusQuery("events : time[100, 200)");
  ASSERT_TRUE(spec.ok());
  CorpusQueryOptions with_scenes;
  with_scenes.scenes = true;
  with_scenes.min_coverage = 0.5;
  auto pruned = corpus.value()->Query(spec.value(), with_scenes);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned.value().shards_pruned, 2u);

  // min_coverage == 0 matches every scene even with zero matching
  // frames, so pruning must be off and every event must report its
  // scene.
  with_scenes.min_coverage = 0.0;
  auto all = corpus.value()->Query(spec.value(), with_scenes);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().shards_pruned, 0u);
  EXPECT_EQ(all.value().shards_opened, 3u);
  for (const EventMatches& em : all.value().events) {
    EXPECT_EQ(em.scenes.size(), 1u) << em.event_id;
  }
}

TEST(CorpusTest, ShardDirNamesAreSanitized) {
  EXPECT_EQ(ShardDirName("event-001"), "shard-event-001");
  EXPECT_EQ(ShardDirName("a b/c"), "shard-a_b_c");
  EXPECT_EQ(ShardDirName(""), "shard-event");
  EXPECT_EQ(ShardDirName("x.y_z-9"), "shard-x.y_z-9");
}

TEST(CorpusTest, DamagedManifestIsCorruptionNotAPartialLoad) {
  const std::string dir = FreshCorpusDir("corpus_damage");
  {
    auto corpus = EventCorpus::Open(dir);
    ASSERT_TRUE(corpus.ok());
    IngestAndSeal(corpus.value().get(), 0, 4);
  }
  FileSystem* fs = FileSystem::Default();
  const std::string path = JoinPath(dir, kManifestFileName);
  auto data = fs->ReadFile(path);
  ASSERT_TRUE(data.ok());
  std::string damaged = data.value();
  damaged[damaged.size() / 2] ^= 0x40;
  ASSERT_TRUE(AtomicWriteFile(fs, path, damaged).ok());
  auto corpus = EventCorpus::Open(dir);
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace dievent
