// Tests for the metadata repository (paper Section II-E).

#include "metadata/repository.h"

#include <gtest/gtest.h>

#include <fstream>

#include "metadata/record_codec.h"

namespace dievent {
namespace {

LookAtRecord Rec(int frame, double t, int n,
                 std::vector<std::pair<int, int>> edges) {
  LookAtMatrix m(n);
  for (auto [a, b] : edges) m.Set(a, b, true);
  return LookAtRecord::FromMatrix(frame, t, m);
}

MetadataRepository SmallRepo() {
  MetadataRepository repo;
  EventContext ctx;
  ctx.event_id = "evt-1";
  ctx.location = "room 12";
  ctx.date = "2018-04-16";
  ctx.occasion = "meeting";
  ctx.menu = {"coffee", "biscuits"};
  ctx.temperature_c = 21.5;
  ctx.num_participants = 3;
  ctx.participant_names = {"P1", "P2", "P3"};
  ctx.relations.push_back({0, 1, "colleagues"});
  repo.SetContext(ctx);
  repo.set_fps(10.0);
  // Frames 0-2: P1<->P2 eye contact in 0 and 1, one-way in 2.
  EXPECT_TRUE(repo.AddLookAt(Rec(0, 0.0, 3, {{0, 1}, {1, 0}})).ok());
  EXPECT_TRUE(repo.AddLookAt(Rec(1, 0.1, 3, {{0, 1}, {1, 0}, {2, 0}})).ok());
  EXPECT_TRUE(repo.AddLookAt(Rec(2, 0.2, 3, {{0, 1}})).ok());
  EmotionRecord er;
  er.frame = 1;
  er.timestamp_s = 0.1;
  er.participant = 0;
  er.emotion = Emotion::kHappy;
  er.confidence = 0.8;
  EXPECT_TRUE(repo.AddEmotion(er).ok());
  OverallEmotionRecord oe;
  oe.frame = 1;
  oe.timestamp_s = 0.1;
  oe.overall_happiness = 0.33;
  oe.mean_valence = 0.2;
  oe.observed = 3;
  EXPECT_TRUE(repo.AddOverallEmotion(oe).ok());
  return repo;
}

TEST(Repository, EnforcesFrameOrder) {
  MetadataRepository repo;
  ASSERT_TRUE(repo.AddLookAt(Rec(5, 0.5, 2, {})).ok());
  EXPECT_EQ(repo.AddLookAt(Rec(3, 0.3, 2, {})).code(),
            StatusCode::kFailedPrecondition);
  // Same frame twice is allowed (e.g. per-camera streams merged upstream).
  EXPECT_TRUE(repo.AddLookAt(Rec(5, 0.5, 2, {})).ok());
}

TEST(Repository, RejectsMalformedLookAt) {
  MetadataRepository repo;
  LookAtRecord bad;
  bad.n = 3;
  bad.cells = {1, 0};  // wrong size
  EXPECT_EQ(repo.AddLookAt(bad).code(), StatusCode::kInvalidArgument);
}

TEST(Repository, FindLookAtIndexBinarySearches) {
  MetadataRepository repo = SmallRepo();
  auto idx = repo.FindLookAtIndex(1);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value(), 1);
  EXPECT_EQ(repo.FindLookAtIndex(99).status().code(),
            StatusCode::kNotFound);
}

TEST(Repository, SummarizeMatchesManualCounts) {
  MetadataRepository repo = SmallRepo();
  LookAtSummary all = repo.Summarize();
  EXPECT_EQ(all.At(0, 1), 3);
  EXPECT_EQ(all.At(1, 0), 2);
  EXPECT_EQ(all.At(2, 0), 1);
  EXPECT_EQ(all.frames_accumulated(), 3);
  LookAtSummary ranged = repo.Summarize(1, 3);
  EXPECT_EQ(ranged.At(0, 1), 2);
}

TEST(Repository, PairIndexServesLookups) {
  MetadataRepository repo = SmallRepo();
  const auto& frames01 = repo.FramesWithLook(0, 1);
  EXPECT_EQ(frames01.size(), 3u);
  const auto& frames20 = repo.FramesWithLook(2, 0);
  ASSERT_EQ(frames20.size(), 1u);
  EXPECT_EQ(repo.lookat_records()[frames20[0]].frame, 1);
  EXPECT_TRUE(repo.FramesWithLook(2, 1).empty());
}

TEST(Repository, EyeContactEpisodesMergeAcrossGaps) {
  MetadataRepository repo;
  // EC on frames 0,1, gap at 2, EC on 3; then a long break and EC at 10.
  EXPECT_TRUE(repo.AddLookAt(Rec(0, 0.0, 2, {{0, 1}, {1, 0}})).ok());
  EXPECT_TRUE(repo.AddLookAt(Rec(1, 0.1, 2, {{0, 1}, {1, 0}})).ok());
  EXPECT_TRUE(repo.AddLookAt(Rec(2, 0.2, 2, {{0, 1}})).ok());
  EXPECT_TRUE(repo.AddLookAt(Rec(3, 0.3, 2, {{0, 1}, {1, 0}})).ok());
  EXPECT_TRUE(repo.AddLookAt(Rec(10, 1.0, 2, {{0, 1}, {1, 0}})).ok());
  auto no_gap = repo.EyeContactEpisodes(1, 0);
  ASSERT_EQ(no_gap.size(), 3u);
  EXPECT_EQ(no_gap[0].begin_frame, 0);
  EXPECT_EQ(no_gap[0].end_frame, 2);
  auto gap1 = repo.EyeContactEpisodes(1, 1);
  ASSERT_EQ(gap1.size(), 2u);
  EXPECT_EQ(gap1[0].begin_frame, 0);
  EXPECT_EQ(gap1[0].end_frame, 4);
  auto min_len = repo.EyeContactEpisodes(2, 0);
  ASSERT_EQ(min_len.size(), 1u);  // only the [0, 2) run has length >= 2
}

TEST(Repository, VideoStructureFlattensToShots) {
  MetadataRepository repo;
  VideoStructure vs;
  vs.num_frames = 50;
  vs.fps = 25.0;
  SceneSegment s1, s2;
  s1.shots.push_back(Shot{0, 20, {0, 10}});
  s2.shots.push_back(Shot{20, 35, {20}});
  s2.shots.push_back(Shot{35, 50, {35}});
  vs.scenes = {s1, s2};
  repo.SetVideoStructure(vs);
  EXPECT_EQ(repo.NumScenes(), 2);
  ASSERT_EQ(repo.shots().size(), 3u);
  EXPECT_EQ(repo.shots()[0].scene_index, 0);
  EXPECT_EQ(repo.shots()[2].scene_index, 1);
  EXPECT_EQ(repo.shots()[0].key_frames.size(), 2u);
  EXPECT_DOUBLE_EQ(repo.fps(), 25.0);
}

TEST(Repository, SaveLoadRoundTripsEverything) {
  MetadataRepository repo = SmallRepo();
  VideoStructure vs;
  vs.num_frames = 3;
  vs.fps = 10.0;
  SceneSegment sc;
  sc.shots.push_back(Shot{0, 3, {0}});
  vs.scenes = {sc};
  repo.SetVideoStructure(vs);

  std::string path = testing::TempDir() + "/repo.dmr";
  ASSERT_TRUE(repo.Save(path).ok());
  auto loaded = MetadataRepository::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const MetadataRepository& r = loaded.value();
  EXPECT_EQ(r.context().event_id, "evt-1");
  EXPECT_EQ(r.context().location, "room 12");
  EXPECT_EQ(r.context().menu.size(), 2u);
  EXPECT_EQ(r.context().participant_names[2], "P3");
  ASSERT_EQ(r.context().relations.size(), 1u);
  EXPECT_EQ(r.context().relations[0].relation, "colleagues");
  EXPECT_DOUBLE_EQ(r.context().temperature_c, 21.5);
  EXPECT_EQ(r.lookat_records().size(), 3u);
  EXPECT_TRUE(r.lookat_records()[1].At(2, 0));
  ASSERT_EQ(r.emotion_records().size(), 1u);
  EXPECT_EQ(r.emotion_records()[0].emotion, Emotion::kHappy);
  ASSERT_EQ(r.overall_records().size(), 1u);
  EXPECT_DOUBLE_EQ(r.overall_records()[0].overall_happiness, 0.33);
  ASSERT_EQ(r.shots().size(), 1u);
  EXPECT_EQ(r.NumScenes(), 1);
  EXPECT_DOUBLE_EQ(r.fps(), 10.0);
}

TEST(Repository, LoadRejectsCorruptFiles) {
  std::string path = testing::TempDir() + "/bad.dmr";
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage";
  }
  EXPECT_EQ(MetadataRepository::Load(path).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(MetadataRepository::Load("/no/file").status().code(),
            StatusCode::kIoError);
}

TEST(Repository, LoadRejectsRetiredV1Snapshot) {
  // A complete, well-formed file in the retired unchecksummed format:
  // "DMR1" magic, version 1, then the bare record fields. Only version 2
  // is readable; the old magic is rejected like any other.
  std::string data;
  BinWriter w(&data);
  w.U32(0x444D5231);  // "DMR1"
  w.U32(1);
  EncodeContext(EventContext(), &data);
  w.F64(10.0);
  w.U32(0);  // look-at records
  w.U32(0);  // emotion records
  w.U32(0);  // overall-emotion records
  EncodeShots({}, 0, &data);
  std::string path = testing::TempDir() + "/v1.dmr";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  Result<MetadataRepository> loaded = MetadataRepository::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("bad repository magic"),
            std::string::npos)
      << loaded.status();
}

TEST(Repository, LoadRejectsTruncation) {
  MetadataRepository repo = SmallRepo();
  std::string path = testing::TempDir() + "/trunc.dmr";
  ASSERT_TRUE(repo.Save(path).ok());
  // Truncate the file body.
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out(path, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  EXPECT_EQ(MetadataRepository::Load(path).status().code(),
            StatusCode::kCorruption);
}

TEST(Repository, TotalRecordsCounts) {
  MetadataRepository repo = SmallRepo();
  EXPECT_EQ(repo.TotalRecords(), 5u);  // 3 lookat + 1 emotion + 1 overall
}

TEST(Repository, FrameBoundsSpanEveryRecordType) {
  MetadataRepository empty;
  EXPECT_FALSE(empty.FrameBounds().has_value());

  MetadataRepository repo = SmallRepo();  // look-at frames 0..2
  auto bounds = repo.FrameBounds();
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->first, 0);
  EXPECT_EQ(bounds->second, 2);

  // An emotion record past the look-at range widens the upper bound.
  EmotionRecord er;
  er.frame = 7;
  er.timestamp_s = 0.7;
  er.participant = 1;
  er.emotion = Emotion::kSad;
  er.confidence = 0.5;
  ASSERT_TRUE(repo.AddEmotion(er).ok());
  bounds = repo.FrameBounds();
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->second, 7);
}

TEST(Repository, LookAtTimeBoundsAreInclusive) {
  MetadataRepository empty;
  EXPECT_FALSE(empty.LookAtTimeBounds().has_value());

  MetadataRepository repo = SmallRepo();
  auto bounds = repo.LookAtTimeBounds();
  ASSERT_TRUE(bounds.has_value());
  EXPECT_DOUBLE_EQ(bounds->first, 0.0);
  EXPECT_DOUBLE_EQ(bounds->second, 0.2);
}

TEST(Repository, LookAtTimeBoundsSurviveNonMonotonicTimestamps) {
  // Frame order is enforced, timestamp order is not (per-camera clock
  // skew): bounds must still be the true min/max.
  MetadataRepository repo;
  ASSERT_TRUE(repo.AddLookAt(Rec(0, 5.0, 2, {})).ok());
  ASSERT_TRUE(repo.AddLookAt(Rec(1, 1.0, 2, {})).ok());
  ASSERT_TRUE(repo.AddLookAt(Rec(2, 3.0, 2, {})).ok());
  auto bounds = repo.LookAtTimeBounds();
  ASSERT_TRUE(bounds.has_value());
  EXPECT_DOUBLE_EQ(bounds->first, 1.0);
  EXPECT_DOUBLE_EQ(bounds->second, 5.0);
}

/// Full-scan oracle: indices whose timestamp falls inside [t0, t1).
std::vector<int> ScanForTime(const MetadataRepository& repo, double t0,
                             double t1) {
  std::vector<int> hits;
  const auto& records = repo.lookat_records();
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].timestamp_s >= t0 && records[i].timestamp_s < t1) {
      hits.push_back(static_cast<int>(i));
    }
  }
  return hits;
}

TEST(Repository, TimeIndexRangeMatchesFullScanWhenMonotonic) {
  MetadataRepository repo;
  for (int f = 0; f < 20; ++f) {
    ASSERT_TRUE(repo.AddLookAt(Rec(f, f * 0.5, 2, {})).ok());
  }
  const std::pair<double, double> windows[] = {
      {0.0, 10.0}, {2.5, 2.5001}, {-5.0, 0.0}, {9.5, 99.0}, {3.0, 3.0}};
  for (auto [t0, t1] : windows) {
    auto [lo, hi] = repo.LookAtIndexRangeForTime(t0, t1);
    const std::vector<int> want = ScanForTime(repo, t0, t1);
    // Monotonic timestamps: the binary-searched range is exact.
    ASSERT_LE(lo, hi);
    std::vector<int> got;
    for (int i = lo; i < hi; ++i) got.push_back(i);
    EXPECT_EQ(got, want) << "[" << t0 << ", " << t1 << ")";
  }
}

TEST(Repository, TimeIndexFallsBackToFullRangeWhenNotMonotonic) {
  MetadataRepository repo;
  ASSERT_TRUE(repo.AddLookAt(Rec(0, 5.0, 2, {})).ok());
  ASSERT_TRUE(repo.AddLookAt(Rec(1, 1.0, 2, {})).ok());
  ASSERT_TRUE(repo.AddLookAt(Rec(2, 3.0, 2, {})).ok());
  auto [lo, hi] = repo.LookAtIndexRangeForTime(2.0, 4.0);
  // The conservative range covers everything; filtering inside it must
  // reproduce the full scan.
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 3);
  std::vector<int> got;
  for (int i = lo; i < hi; ++i) {
    const LookAtRecord& r = repo.lookat_records()[i];
    if (r.timestamp_s >= 2.0 && r.timestamp_s < 4.0) got.push_back(i);
  }
  EXPECT_EQ(got, ScanForTime(repo, 2.0, 4.0));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 2);
}

TEST(Repository, TimeIndexRebuildsAfterNewRecords) {
  MetadataRepository repo;
  ASSERT_TRUE(repo.AddLookAt(Rec(0, 0.0, 2, {})).ok());
  ASSERT_TRUE(repo.AddLookAt(Rec(1, 1.0, 2, {})).ok());
  auto [lo1, hi1] = repo.LookAtIndexRangeForTime(0.0, 10.0);
  EXPECT_EQ(hi1 - lo1, 2);
  // A timestamp regression after the index was built must demote the
  // repository to the conservative full-range answer.
  ASSERT_TRUE(repo.AddLookAt(Rec(2, 0.5, 2, {})).ok());
  auto [lo2, hi2] = repo.LookAtIndexRangeForTime(0.9, 10.0);
  EXPECT_EQ(lo2, 0);
  EXPECT_EQ(hi2, 3);
}

}  // namespace
}  // namespace dievent
