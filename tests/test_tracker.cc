#include "ml/tracker.h"

#include <gtest/gtest.h>

namespace dievent {
namespace {

FaceDetection Det(double cx, double cy, double r = 15) {
  FaceDetection d;
  d.center_px = {cx, cy};
  d.radius_px = r;
  d.bbox = BBox{static_cast<int>(cx - r), static_cast<int>(cy - 0.9 * r),
                static_cast<int>(2 * r), static_cast<int>(1.9 * r)};
  d.score = 0.8;
  return d;
}

TEST(Tracker, BirthsOnFirstFrame) {
  MultiTracker t;
  auto& tracks = t.Update(0, {Det(100, 100), Det(300, 200)});
  EXPECT_EQ(tracks.size(), 2u);
  EXPECT_EQ(tracks[0].hits, 1);
  // Not confirmed yet (Track::kMinHits = 2).
  EXPECT_TRUE(t.ConfirmedTracks().empty());
}

TEST(Tracker, AssociatesAcrossFramesAndConfirms) {
  MultiTracker t;
  t.Update(0, {Det(100, 100)});
  int id0 = t.tracks()[0].track_id;
  t.Update(1, {Det(104, 102)});
  ASSERT_EQ(t.tracks().size(), 1u);
  EXPECT_EQ(t.tracks()[0].track_id, id0);
  EXPECT_EQ(t.tracks()[0].hits, 2);
  EXPECT_EQ(t.ConfirmedTracks().size(), 1u);
}

TEST(Tracker, TracksTwoTargetsWithoutSwapping) {
  MultiTracker t;
  // Two heads moving toward each other, never overlapping.
  for (int f = 0; f < 10; ++f) {
    t.Update(f, {Det(100 + f * 5, 100), Det(300 - f * 5, 100)});
  }
  ASSERT_EQ(t.tracks().size(), 2u);
  // The track that started left is still the left one.
  const Track& a = t.tracks()[0];
  const Track& b = t.tracks()[1];
  EXPECT_LT(std::min(a.center_px.x, b.center_px.x), 160);
  EXPECT_EQ(a.hits, 10);
  EXPECT_EQ(b.hits, 10);
}

TEST(Tracker, CoastsThroughMissesThenDies) {
  TrackerOptions opt;
  opt.max_misses = 3;
  MultiTracker t(opt);
  t.Update(0, {Det(100, 100)});
  t.Update(1, {Det(105, 100)});
  for (int f = 2; f < 5; ++f) {
    t.Update(f, {});
    ASSERT_EQ(t.tracks().size(), 1u) << f;
    EXPECT_EQ(t.tracks()[0].misses, f - 1);
  }
  t.Update(5, {});
  EXPECT_TRUE(t.tracks().empty());
}

TEST(Tracker, ReacquiresAfterShortDropout) {
  MultiTracker t;
  t.Update(0, {Det(100, 100)});
  t.Update(1, {Det(106, 100)});  // velocity ~6 px/frame
  int id = t.tracks()[0].track_id;
  t.Update(2, {});               // dropout; coasting predicts ~112
  t.Update(3, {Det(118, 100)});  // matches the coasted position
  ASSERT_EQ(t.tracks().size(), 1u);
  EXPECT_EQ(t.tracks()[0].track_id, id);
  EXPECT_EQ(t.tracks()[0].misses, 0);
}

TEST(Tracker, CarriesIdentityAcrossRecognitionDropouts) {
  MultiTracker t;
  t.Update(0, {Det(100, 100)}, {2});
  EXPECT_EQ(t.tracks()[0].identity, 2);
  // Recognition failed this frame (-1): the track keeps identity 2.
  t.Update(1, {Det(103, 101)}, {-1});
  EXPECT_EQ(t.tracks()[0].identity, 2);
  int track_id = t.last_detection_track_ids()[0];
  EXPECT_EQ(t.IdentityOfTrack(track_id), 2);
}

TEST(Tracker, LastDetectionTrackIdsCoverBirths) {
  MultiTracker t;
  t.Update(0, {Det(100, 100), Det(300, 100)});
  auto ids = t.last_detection_track_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_GE(ids[0], 0);
}

TEST(Tracker, GatingPreventsAbsurdJumps) {
  MultiTracker t;
  t.Update(0, {Det(100, 100)});
  // A detection on the other side of the frame is not the same head.
  t.Update(1, {Det(600, 400)});
  EXPECT_EQ(t.tracks().size(), 2u);
}

TEST(Tracker, ResetClearsState) {
  MultiTracker t;
  t.Update(0, {Det(1, 1)});
  t.Reset();
  EXPECT_TRUE(t.tracks().empty());
  t.Update(0, {Det(1, 1)});
  EXPECT_EQ(t.tracks()[0].track_id, 0);  // ids restart
}

TEST(Tracker, UnknownIdentityOfDeadTrack) {
  MultiTracker t;
  EXPECT_EQ(t.IdentityOfTrack(99), -1);
}

}  // namespace
}  // namespace dievent
