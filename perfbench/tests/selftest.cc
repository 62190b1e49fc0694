// Self-tests for the benchmark's own helpers (perfbench/ledger.h): the
// tail-percentile rule, self-time arithmetic on nested spans, and the
// timing decorators forwarding every call unchanged.
//
// Build and run: cmake --build .bench_build --target perfbench_selftest
// && .bench_build/perfbench_selftest (run.py --self-test does both). The
// tests write scratch stores under the current directory.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "ledger.h"
#include "metadata/corpus.h"
#include "metadata/durable_store.h"
#include "sim/scenario.h"
#include "video/synthetic_source.h"

namespace perfbench {
namespace {

using namespace dievent;

TEST(TailPercentile, HighestLadderStepWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(19), 0);
  EXPECT_EQ(TailPercentile(20), 5000);
  EXPECT_EQ(TailPercentile(99), 5000);
  EXPECT_EQ(TailPercentile(100), 9000);
  EXPECT_EQ(TailPercentile(999), 9000);
  EXPECT_EQ(TailPercentile(1000), 9900);
  EXPECT_EQ(TailPercentile(100000), 9900);
}

TEST(TailPercentile, SummaryLeavesExactlyTenAbove) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.tail_p, 9900);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.tail, 990);
  int above = 0;
  for (double x : v) above += x > s.tail ? 1 : 0;
  EXPECT_EQ(above, 10);
}

TEST(TailPercentile, FewSamplesFallBackToMax) {
  const LatencySummary s = Summarize({3, 1, 2});
  EXPECT_EQ(s.tail_p, 0);
  EXPECT_EQ(s.p50, 2);
  EXPECT_EQ(s.tail, 3);
}

TEST(TrimmedMean, DropsOnlyTheLowestAndHighest) {
  EXPECT_DOUBLE_EQ(TrimmedMean({}), 0);
  EXPECT_DOUBLE_EQ(TrimmedMean({4, 2}), 3);
  EXPECT_DOUBLE_EQ(TrimmedMean({100, 1, 2, 3, 4, -50}), 2.5);
}

TEST(SelfTime, SubtractsUnionOfChildrenClippedToParent) {
  SpanRecorder rec;
  const int64_t root = rec.Add("root", 0, 10);
  const int64_t a = rec.Add("a", 1, 3, root, 1);
  rec.Add("b", 2, 5, root, 2);   // overlaps a on another thread
  rec.Add("c", 8, 12, root, 1);  // runs past the parent's end
  rec.Add("a.child", 1.5, 2, a, 1);
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans[0].id, root);
  ASSERT_EQ(spans[1].id, a);
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - (5 - 1) - (10 - 8));
  EXPECT_DOUBLE_EQ(self[1], 2 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 3);  // leaves keep their whole duration

  const SpanStats stats(spans);
  EXPECT_EQ(stats.Count("a"), 1u);
  EXPECT_DOUBLE_EQ(stats.MedianDuration("c"), 4);
  EXPECT_DOUBLE_EQ(stats.MedianSelf("root"), 4);
  EXPECT_DOUBLE_EQ(stats.SumSelf("a"), 1.5);
}

TEST(SelfTime, ScopedSpansNestPerThread) {
  SpanRecorder rec;
  int64_t outer_id = 0;
  {
    ScopedSpan outer(&rec, "outer");
    outer_id = outer.id();
    { ScopedSpan inner(&rec, "inner"); }
  }
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, outer_id);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(ScopedSpan::Current(), 0);

  SpanRecorder off(false);
  { ScopedSpan ignored(&off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Decorators, VideoSourceForwardsFramesUnchanged) {
  const DiningScene scene = MakeMeetingScenario();
  SpanRecorder rec;
  std::atomic<int64_t> parent{0};
  SyntheticVideoSource plain(&scene, 1, {}, {}, 5);
  TimedVideoSource timed(
      std::make_unique<SyntheticVideoSource>(&scene, 1, RenderOptions{},
                                             RenderScripts{}, 5),
      &rec, &parent);
  EXPECT_EQ(timed.NumFrames(), plain.NumFrames());
  EXPECT_EQ(timed.Fps(), plain.Fps());
  for (int f : {0, 150, 609}) {
    auto a = plain.GetFrame(f);
    auto b = timed.GetFrame(f);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().index, b.value().index);
    EXPECT_EQ(a.value().timestamp_s, b.value().timestamp_s);
    EXPECT_TRUE(a.value().image == b.value().image);
  }
  EXPECT_FALSE(timed.GetFrame(610).ok());
  EXPECT_EQ(rec.spans().size(), 4u);
}

/// Record counts a ground-truth run leaves in a durable store, and what
/// a corpus sealed over the same records answers, using `fs`.
struct StoreCounts {
  size_t lookat = 0, emotions = 0, overall = 0;
  uint64_t journal_records = 0;
  uint64_t frames_matched = 0;
  std::vector<std::string> files;
};

StoreCounts RunWithFs(FileSystem* fs, const std::string& dir) {
  std::filesystem::remove_all(dir);
  StoreCounts c;
  Rng rng(11);
  const DiningScene scene = MakeRandomScenario(4, 80, 15.25, &rng);
  DurableStoreOptions so;
  so.fs = fs;
  {
    auto store = DurableEventStore::Open(dir + "/store", so);
    EXPECT_TRUE(store.ok());
    PipelineOptions opt;
    opt.mode = PipelineMode::kGroundTruth;
    opt.parse_video = false;
    opt.store = store.value().get();
    opt.checkpoint_every_frames = 16;
    MetadataRepository repo;
    EXPECT_TRUE(DiEventPipeline(&scene, opt).Run(&repo).ok());
    c.journal_records = store.value()->stats().records_appended;
    EXPECT_TRUE(store.value()->Close().ok());

    CorpusOptions co;
    co.fs = fs;
    auto corpus = EventCorpus::Open(dir + "/corpus", co);
    EXPECT_TRUE(corpus.ok());
    auto shard = corpus.value()->BeginShard("e1");
    EXPECT_TRUE(shard.ok());
    RecordBatch batch;
    batch.lookat = repo.lookat_records();
    batch.emotions = repo.emotion_records();
    batch.overall = repo.overall_records();
    EXPECT_TRUE(shard.value()->AppendBatch(batch).ok());
    EXPECT_TRUE(corpus.value()->SealShard("e1").ok());
    EXPECT_TRUE(corpus.value()->RegisterShard(dir + "/store").ok());
    CorpusQuerySpec all;
    auto result = corpus.value()->Query(all);
    EXPECT_TRUE(result.ok());
    c.frames_matched = result.value().total_frames;
  }
  auto loaded = DurableEventStore::LoadState(nullptr, dir + "/store");
  EXPECT_TRUE(loaded.ok());
  c.lookat = loaded.value().lookat_records().size();
  c.emotions = loaded.value().emotion_records().size();
  c.overall = loaded.value().overall_records().size();
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    c.files.push_back(std::filesystem::relative(entry.path(), dir).string());
  }
  std::sort(c.files.begin(), c.files.end());
  std::filesystem::remove_all(dir);
  return c;
}

TEST(Decorators, FileSystemForwardsEveryCallUnchanged) {
  // Absolute: the corpus resolves registered store paths against its root.
  const std::string base =
      std::filesystem::absolute("perfbench_selftest").string();
  const StoreCounts plain = RunWithFs(nullptr, base + "-plain");
  SpanRecorder rec;
  TimedFileSystem timed(FileSystem::Default(), &rec);
  const StoreCounts traced = RunWithFs(&timed, base + "-timed");

  EXPECT_EQ(plain.lookat, 80u);
  EXPECT_EQ(traced.lookat, plain.lookat);
  EXPECT_EQ(traced.emotions, plain.emotions);
  EXPECT_EQ(traced.overall, plain.overall);
  EXPECT_EQ(traced.journal_records, plain.journal_records);
  EXPECT_EQ(traced.frames_matched, plain.frames_matched);
  EXPECT_EQ(traced.frames_matched, 160u);
  EXPECT_EQ(traced.files, plain.files);

  const IoCounters& io = timed.counters();
  EXPECT_GT(io.AppendBytes(FileKind::kJournal), 0u);
  EXPECT_GT(io.AppendBytes(FileKind::kSnapshot), 0u);
  EXPECT_GT(io.AppendBytes(FileKind::kManifest), 0u);
  EXPECT_GE(io.Syncs(FileKind::kJournal), plain.journal_records);
  EXPECT_GT(io.read_bytes.load(), 0u);
  EXPECT_FALSE(rec.spans().empty());
}

TEST(Decorators, ClassifiesDurabilityFiles) {
  EXPECT_EQ(ClassifyPath("a/b/journal-000001.wal"), FileKind::kJournal);
  EXPECT_EQ(ClassifyPath("a/snapshot.dmr.tmp"), FileKind::kSnapshot);
  EXPECT_EQ(ClassifyPath("corpus/MANIFEST.tmp"), FileKind::kManifest);
  EXPECT_EQ(ClassifyPath("notes.txt"), FileKind::kOther);
}

}  // namespace
}  // namespace perfbench
