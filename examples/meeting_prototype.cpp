// The paper's Section III prototype, end to end on the full vision stack:
// four synchronized cameras on the room corners, a 40 s / 610-frame
// meeting of four participants, per-frame look-at matrices, the Fig. 9
// summary, and the Fig. 7/8 top-view maps — all written to disk.

#include <cstdio>
#include <string>

#include "analysis/topview_map.h"
#include "common/flags.h"
#include "core/pipeline.h"
#include "image/pnm_io.h"
#include "ml/face_recognizer.h"
#include "sim/scenario.h"
#include "video/synthetic_source.h"
#include "vision/face_analyzer.h"
#include "vision/overlay.h"

namespace {

using namespace dievent;

int Run(const std::string& out_dir) {
  DiningScene scene = MakeMeetingScenario();
  std::printf(
      "meeting prototype: %d participants, %d cameras, %d frames @ %.2f "
      "fps\n",
      scene.NumParticipants(), scene.rig().NumCameras(),
      scene.num_frames(), scene.fps());

  // Dump the four camera views at t = 10 s (the paper's Fig. 7a strip).
  for (int c = 0; c < scene.rig().NumCameras(); ++c) {
    ImageRgb frame = RenderViewAt(scene, 10.0, c, RenderOptions{});
    std::string path =
        out_dir + "/camera_" + std::to_string(c + 1) + "_t10.ppm";
    Status st = WritePpm(frame, path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("wrote camera_1..4_t10.ppm (the Fig. 7a views)\n");

  // Annotated view: what the vision stack sees in camera 2 at t = 10 s
  // (detections, landmarks, gaze arrows, identities).
  {
    FaceAnalyzer analyzer;
    FaceRecognizer recognizer;
    std::vector<ParticipantProfile> profiles;
    for (const auto& p : scene.participants())
      profiles.push_back(p.profile);
    if (recognizer.EnrollProfiles(profiles).ok()) {
      ImageRgb frame = RenderViewAt(scene, 10.0, 1, RenderOptions{});
      auto obs = analyzer.Analyze(scene.rig().camera(1), 1, frame);
      for (auto& o : obs) {
        o.identity = recognizer.Recognize(frame, o.detection).id;
      }
      ImageRgb annotated = RenderOverlay(frame, obs);
      (void)WritePpm(annotated, out_dir + "/camera_2_t10_annotated.ppm");
      std::printf("wrote camera_2_t10_annotated.ppm (vision debug "
                  "overlay)\n");
    }
  }

  // Full-vision pipeline over the complete recording.
  PipelineOptions opt;
  opt.mode = PipelineMode::kFullVision;
  opt.eye_contact.angular_tolerance_deg = 12.0;
  opt.analyze_emotions = true;
  opt.emotion.samples_per_class = 100;  // quick demo training
  opt.emotion.train.epochs = 30;
  opt.frame_stride = 2;  // every other frame keeps the demo snappy
  MetadataRepository repo;
  DiEventPipeline pipeline(&scene, opt);
  auto report = pipeline.Run(&repo);
  if (!report.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const DiEventReport& r = report.value();
  std::printf("\n%s\n", r.Summary().c_str());
  std::printf("vision-vs-truth: look-at cells %.1f%% correct, gaze error "
              "%.1f deg, emotion accuracy %.1f%%\n",
              100 * r.accuracy.lookat_cell_accuracy,
              r.accuracy.mean_gaze_error_deg,
              100 * r.accuracy.emotion_accuracy);

  // Fig. 7b / 8b: top-view maps at t = 10 s and t = 15 s from the
  // *stored* per-frame matrices.
  for (double t : {10.0, 15.0}) {
    int frame = static_cast<int>(t * scene.fps());
    frame -= frame % opt.frame_stride;  // nearest processed frame
    auto idx = repo.FindLookAtIndex(frame);
    if (!idx.ok()) continue;
    LookAtMatrix m = repo.lookat_records()[idx.value()].ToMatrix();
    ImageRgb map = RenderTopViewMap(scene, m);
    std::string path = out_dir + "/lookat_map_t" +
                       std::to_string(static_cast<int>(t)) + ".ppm";
    (void)WritePpm(map, path);
    std::printf("t=%.0fs: %zu directed looks, %zu eye contact(s) -> %s\n",
                t, m.DirectedEdges().size(), m.EyeContactPairs().size(),
                path.c_str());
  }

  // Persist the repository; a second process could now query it.
  std::string repo_path = out_dir + "/meeting.dmr";
  Status st = repo.Save(repo_path);
  std::printf("metadata repository (%zu records): %s\n",
              repo.TotalRecords(),
              st.ok() ? repo_path.c_str() : st.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  dievent::FlagParser flags("meeting_prototype",
                            "Writes its images and repository to <output-dir>"
                            " (default: .).");
  flags.Positional("output-dir", &out_dir, /*required=*/false);
  flags.ParseOrExit(argc, argv);
  return Run(out_dir);
}
