#include "metadata/event_collection.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

MetadataRepository EventWithMood(const std::string& id, Emotion mood,
                                 int frames) {
  MetadataRepository repo;
  EventContext ctx;
  ctx.event_id = id;
  ctx.num_participants = 2;
  ctx.participant_names = {"A", "B"};
  repo.SetContext(ctx);
  repo.set_fps(10.0);
  for (int f = 0; f < frames; ++f) {
    LookAtMatrix m(2);
    if (f < frames / 2) {
      m.Set(0, 1, true);
      m.Set(1, 0, true);
    }
    EXPECT_TRUE(
        repo.AddLookAt(LookAtRecord::FromMatrix(f, f / 10.0, m)).ok());
    OverallEmotionRecord oe;
    oe.frame = f;
    oe.timestamp_s = f / 10.0;
    oe.overall_happiness = mood == Emotion::kHappy ? 1.0 : 0.0;
    oe.mean_valence = EmotionValence(mood);
    oe.observed = 2;
    EXPECT_TRUE(repo.AddOverallEmotion(oe).ok());
  }
  return repo;
}

TEST(EventStats, AggregatesOneEvent) {
  MetadataRepository repo = EventWithMood("good-night", Emotion::kHappy,
                                          100);
  EventStats stats = ComputeEventStats(repo);
  EXPECT_EQ(stats.event_id, "good-night");
  EXPECT_EQ(stats.frames, 100);
  EXPECT_NEAR(stats.duration_s, 10.0, 1e-9);
  EXPECT_NEAR(stats.mean_overall_happiness, 1.0, 1e-9);
  EXPECT_NEAR(stats.mean_valence, 1.0, 1e-9);
  // EC on the first 50 frames = 5 seconds.
  EXPECT_NEAR(stats.eye_contact_s, 5.0, 0.2);
  EXPECT_EQ(stats.dominant, "A");  // ties break to lower id
}

TEST(EventCollection, RanksBySatisfaction) {
  EventCollection collection;
  collection.Add(
      ComputeEventStats(EventWithMood("sad", Emotion::kSad, 50)));
  collection.Add(
      ComputeEventStats(EventWithMood("happy", Emotion::kHappy, 50)));
  collection.Add(
      ComputeEventStats(EventWithMood("flat", Emotion::kNeutral, 50)));
  auto ranked = collection.RankedBySatisfaction();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].event_id, "happy");
  EXPECT_EQ(ranked[1].event_id, "flat");
  EXPECT_EQ(ranked[2].event_id, "sad");
}

TEST(EventCollection, ComparisonTableListsAllEvents) {
  EventCollection collection;
  collection.Add(
      ComputeEventStats(EventWithMood("tue", Emotion::kHappy, 30)));
  collection.Add(
      ComputeEventStats(EventWithMood("wed", Emotion::kSad, 30)));
  std::string table = collection.ComparisonTable();
  EXPECT_NE(table.find("tue"), std::string::npos);
  EXPECT_NE(table.find("wed"), std::string::npos);
  EXPECT_NE(table.find("dominant"), std::string::npos);
}

TEST(EventCollection, EndToEndWithPipeline) {
  // Two pipeline runs of different emotional scripts rank correctly.
  auto run = [](double duration) {
    DiningScene scene = MakeDinnerScenario(4, duration, 10.0);
    PipelineOptions opt;
    opt.mode = PipelineMode::kGroundTruth;
    opt.parse_video = false;
    MetadataRepository repo;
    auto report = DiEventPipeline(&scene, opt).Run(&repo);
    EXPECT_TRUE(report.ok());
    return repo;
  };
  MetadataRepository a = run(30.0);
  EventCollection collection;
  EventStats stats = ComputeEventStats(a);
  EXPECT_EQ(stats.participants, 4);
  EXPECT_GT(stats.frames, 0);
  collection.Add(stats);
  EXPECT_EQ(collection.NumEvents(), 1);
}

}  // namespace
}  // namespace dievent
