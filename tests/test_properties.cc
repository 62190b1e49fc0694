// Parameterized property sweeps across the core invariants: geometry
// frame-independence, analysis/summary algebra, repository round trips,
// tracker behaviour under dropout, and histogram metric axioms — each
// checked across a sweep of configurations rather than one hand-picked
// case.

#include <gtest/gtest.h>

#include <ostream>

#include "analysis/eye_contact.h"
#include "core/pipeline.h"
#include "image/histogram.h"
#include "ml/tracker.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

// ---------------------------------------------------------------------------
// Eye-contact invariants across group sizes.

class EyeContactProperties : public testing::TestWithParam<int> {};

TEST_P(EyeContactProperties, LookAtMatrixInvariants) {
  const int n = GetParam();
  Rng rng(1000 + n);
  DiningScene scene = MakeRandomScenario(n, 60, 10.0, &rng);
  EyeContactDetector det;
  LookAtSummary summary(n);
  for (int f = 0; f < scene.num_frames(); f += 6) {
    auto states = scene.StateAt(scene.TimeOfFrame(f));
    std::vector<ParticipantGeometry> people(n);
    for (int i = 0; i < n; ++i) {
      people[i].head_position = states[i].head_position;
      people[i].gaze_direction = states[i].gaze_direction;
    }
    LookAtMatrix m = det.ComputeLookAt(people);
    // (1) Zero diagonal, by the paper's definition.
    for (int i = 0; i < n; ++i) EXPECT_FALSE(m.At(i, i));
    // (2) Every EC pair implies both directed edges.
    for (auto [a, b] : m.EyeContactPairs()) {
      EXPECT_TRUE(m.At(a, b));
      EXPECT_TRUE(m.At(b, a));
    }
    // (3) Each participant looks at most at one person (a single ray
    //     cannot pierce two disjoint head spheres in this seating
    //     geometry... it can graze two if aligned; allow <= 2).
    for (int i = 0; i < n; ++i) {
      int out = 0;
      for (int j = 0; j < n; ++j) {
        if (i != j && m.At(i, j)) ++out;
      }
      EXPECT_LE(out, 2);
    }
    ASSERT_TRUE(summary.Accumulate(m).ok());
  }
  // (4) Summary totals: sum of row sums == sum of column sums == total
  //     directed looks.
  long long rows = 0, cols = 0;
  for (int i = 0; i < n; ++i) {
    rows += summary.RowSum(i);
    cols += summary.ColumnSum(i);
  }
  EXPECT_EQ(rows, cols);
}

TEST_P(EyeContactProperties, FrameIndependenceOfLookAt) {
  // The look-at matrix must be identical no matter which rig camera's
  // frame the observations are expressed in (paper Eq. 2's purpose).
  const int n = GetParam();
  Rng rng(2000 + n);
  DiningScene scene = MakeRandomScenario(n, 30, 10.0, &rng);
  EyeContactDetector det;
  for (int f = 0; f < 30; f += 7) {
    auto states = scene.StateAt(scene.TimeOfFrame(f));
    std::vector<ParticipantGeometry> world(n);
    std::vector<CameraFrameGeometry> observed(n);
    for (int i = 0; i < n; ++i) {
      world[i].head_position = states[i].head_position;
      world[i].gaze_direction = states[i].gaze_direction;
      observed[i].camera_index =
          static_cast<int>(rng.NextBelow(scene.rig().NumCameras()));
      const Pose& cam_T_world =
          scene.rig().camera(observed[i].camera_index).camera_from_world();
      observed[i].head_position =
          cam_T_world.TransformPoint(states[i].head_position);
      observed[i].gaze_direction =
          cam_T_world.TransformDirection(states[i].gaze_direction);
    }
    LookAtMatrix reference = det.ComputeLookAt(world);
    for (int ref = 0; ref < scene.rig().NumCameras(); ++ref) {
      auto m = det.ComputeLookAtInCameraFrame(scene.rig(), ref, observed);
      ASSERT_TRUE(m.ok());
      EXPECT_TRUE(m.value() == reference) << "camera " << ref;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, EyeContactProperties,
                         testing::Values(2, 3, 4, 5, 6, 8, 10));

// ---------------------------------------------------------------------------
// Ground-truth pipeline invariants across scenario shapes.

struct PipelineParam {
  int participants;
  int frames;
  double fps;
};

// ctest names value-parameterized tests by the printed parameter; without
// a printer gtest dumps the struct's raw bytes, padding included, so the
// names would change from one test discovery to the next.
void PrintTo(const PipelineParam& p, std::ostream* os) {
  *os << p.participants << "p_" << p.frames << "f_" << p.fps << "fps";
}

class PipelineProperties : public testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineProperties, RepositoryMatchesReport) {
  const PipelineParam p = GetParam();
  Rng rng(31 * p.participants + p.frames);
  DiningScene scene =
      MakeRandomScenario(p.participants, p.frames, p.fps, &rng);
  PipelineOptions opt;
  opt.mode = PipelineMode::kGroundTruth;
  opt.parse_video = false;
  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();

  // One look-at record per frame, in order, with consistent timestamps.
  ASSERT_EQ(repo.lookat_records().size(),
            static_cast<size_t>(p.frames));
  for (int f = 1; f < p.frames; ++f) {
    EXPECT_LT(repo.lookat_records()[f - 1].frame,
              repo.lookat_records()[f].frame);
  }
  // The report's summary equals re-summarizing the repository.
  LookAtSummary resummed = repo.Summarize();
  for (int x = 0; x < p.participants; ++x) {
    for (int y = 0; y < p.participants; ++y) {
      EXPECT_EQ(resummed.At(x, y), report.value().summary.At(x, y));
    }
  }
  // Dominance is the argmax column, recomputed independently.
  long long best = -1;
  int best_col = -1;
  for (int y = 0; y < p.participants; ++y) {
    if (resummed.ColumnSum(y) > best) {
      best = resummed.ColumnSum(y);
      best_col = y;
    }
  }
  EXPECT_EQ(report.value().dominant_participant, best_col);
  // Save/load round trip preserves every record count. The path is
  // per-parameter: ctest runs each instance as its own process, so a
  // shared file would race under a parallel suite.
  std::string path = testing::TempDir() +
                     "/prop_repo_" + std::to_string(p.participants) + "_" +
                     std::to_string(p.frames) + ".dmr";
  ASSERT_TRUE(repo.Save(path).ok());
  auto loaded = MetadataRepository::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().TotalRecords(), repo.TotalRecords());
}

INSTANTIATE_TEST_SUITE_P(
    ScenarioShapes, PipelineProperties,
    testing::Values(PipelineParam{2, 40, 10.0}, PipelineParam{3, 80, 15.25},
                    PipelineParam{5, 50, 25.0}, PipelineParam{8, 30, 10.0}));

// ---------------------------------------------------------------------------
// Histogram metric axioms across bin resolutions and binning modes.

struct HistogramParam {
  int bins;
  bool soft;
};

// Printed as e.g. `8_soft`; see PrintTo(PipelineParam) for why.
void PrintTo(const HistogramParam& p, std::ostream* os) {
  *os << p.bins << (p.soft ? "_soft" : "_hard");
}

class HistogramProperties
    : public testing::TestWithParam<HistogramParam> {};

TEST_P(HistogramProperties, MetricAxiomsHold) {
  const auto [bins, soft] = GetParam();
  Rng rng(bins * 2 + soft);
  auto random_image = [&] {
    ImageRgb img(24, 24, 3);
    for (uint8_t& v : img.data())
      v = static_cast<uint8_t>(rng.NextBelow(256));
    return img;
  };
  for (int trial = 0; trial < 10; ++trial) {
    Histogram a = ComputeColorHistogram(random_image(), bins, soft);
    Histogram b = ComputeColorHistogram(random_image(), bins, soft);
    // Normalization.
    double total = 0;
    for (double v : a.bins) total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
    // Identity of indiscernibles (distance side).
    EXPECT_NEAR(ChiSquareDistance(a, a), 0.0, 1e-12);
    EXPECT_NEAR(L1Distance(a, a), 0.0, 1e-12);
    EXPECT_NEAR(IntersectionSimilarity(a, a), 1.0, 1e-9);
    // Symmetry.
    EXPECT_DOUBLE_EQ(ChiSquareDistance(a, b), ChiSquareDistance(b, a));
    EXPECT_DOUBLE_EQ(L1Distance(a, b), L1Distance(b, a));
    // Bounds.
    EXPECT_GE(L1Distance(a, b), 0.0);
    EXPECT_LE(L1Distance(a, b), 2.0 + 1e-9);
    EXPECT_LE(ChiSquareDistance(a, b), 2.0 + 1e-9);
    double inter = IntersectionSimilarity(a, b);
    EXPECT_GE(inter, 0.0);
    EXPECT_LE(inter, 1.0 + 1e-9);
    // Intersection/L1 duality: inter = 1 - L1/2 for normalized inputs.
    EXPECT_NEAR(inter, 1.0 - L1Distance(a, b) / 2.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BinModes, HistogramProperties,
    testing::Values(HistogramParam{4, false}, HistogramParam{4, true},
                    HistogramParam{8, false}, HistogramParam{8, true},
                    HistogramParam{16, false}, HistogramParam{16, true}));

// ---------------------------------------------------------------------------
// Tracker stability under detection dropout.

class TrackerDropout : public testing::TestWithParam<double> {};

TEST_P(TrackerDropout, IdentityPersistsThroughMissedDetections) {
  const double drop_rate = GetParam();
  Rng rng(static_cast<uint64_t>(drop_rate * 1000) + 5);
  TrackerOptions opt;
  opt.max_misses = 10;
  MultiTracker tracker(opt);
  // Two targets on smooth trajectories with random dropouts.
  int stable_frames = 0;
  for (int f = 0; f < 200; ++f) {
    std::vector<FaceDetection> dets;
    std::vector<int> ids;
    auto add = [&](double cx, double cy, int identity) {
      if (rng.NextDouble() < drop_rate) return;  // dropout
      FaceDetection d;
      d.center_px = {cx, cy};
      d.radius_px = 15;
      d.bbox = BBox{static_cast<int>(cx - 15), static_cast<int>(cy - 14),
                    30, 28};
      dets.push_back(d);
      ids.push_back(identity);
    };
    add(100 + f * 1.5, 100 + 20 * std::sin(f * 0.05), 0);
    add(500 - f * 1.5, 300, 1);
    tracker.Update(f, dets, ids);
    // Property: never more live tracks than true targets (no duplicate
    // births while the original track coasts), and identities never swap.
    EXPECT_LE(tracker.tracks().size(), 2u) << "frame " << f;
    for (const Track& t : tracker.tracks()) {
      if (t.identity == 0) {
        EXPECT_LT(t.center_px.y, 200) << "frame " << f;
      } else if (t.identity == 1) {
        EXPECT_GT(t.center_px.y, 200) << "frame " << f;
      }
    }
    if (tracker.tracks().size() == 2) ++stable_frames;
  }
  // The tracker holds both targets most of the time even with dropouts.
  EXPECT_GT(stable_frames, 150);
}

INSTANTIATE_TEST_SUITE_P(DropRates, TrackerDropout,
                         testing::Values(0.0, 0.1, 0.2, 0.3));

// ---------------------------------------------------------------------------
// Scenario script algebra: frame phases tile the timeline exactly.

class PhasedScenarioProperties
    : public testing::TestWithParam<int> {};

TEST_P(PhasedScenarioProperties, PhaseLabelsTileTimeline) {
  const int n = GetParam();
  Rng rng(600 + n);
  std::vector<std::pair<DiningPhase, double>> phases = {
      {DiningPhase::kEating, 8},
      {DiningPhase::kDiscussion, 12},
      {DiningPhase::kPresentation, 10},
      {DiningPhase::kEating, 6},
  };
  PhasedScene phased = MakePhasedDinnerScenario(n, phases, 10.0, &rng);
  EXPECT_EQ(phased.scene.num_frames(), 360);
  ASSERT_EQ(phased.frame_phase.size(), 360u);
  // Phase boundaries land exactly where the durations say.
  EXPECT_EQ(phased.frame_phase[0], DiningPhase::kEating);
  EXPECT_EQ(phased.frame_phase[79], DiningPhase::kEating);
  EXPECT_EQ(phased.frame_phase[80], DiningPhase::kDiscussion);
  EXPECT_EQ(phased.frame_phase[199], DiningPhase::kDiscussion);
  EXPECT_EQ(phased.frame_phase[200], DiningPhase::kPresentation);
  EXPECT_EQ(phased.frame_phase[300], DiningPhase::kEating);
  // Gaze scripts are valid for every participant (all targets resolve).
  for (int f = 0; f < 360; f += 17) {
    auto states = phased.scene.StateAt(phased.scene.TimeOfFrame(f));
    for (const auto& s : states) {
      EXPECT_NEAR(s.gaze_direction.Norm(), 1.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, PhasedScenarioProperties,
                         testing::Values(3, 4, 6, 8));

}  // namespace
}  // namespace dievent
