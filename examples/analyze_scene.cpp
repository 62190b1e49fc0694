// Config-driven analysis CLI: load a scene definition from a text file
// (see examples/sample_scene.cfg), run the DiEvent pipeline, and print
// the full report — no recompilation needed to explore new scenarios.
//
//   analyze_scene examples/sample_scene.cfg --vision --save out.dmr

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "core/pipeline.h"
#include "metadata/engagement.h"
#include "sim/scene_config.h"

int main(int argc, char** argv) {
  using namespace dievent;
  std::string config_path;
  bool vision = false;
  std::string save_path;
  FlagParser flags("analyze_scene",
                   "Runs the pipeline on <scene.cfg>, prints the report.");
  flags.Bool("vision", &vision, "full vision stack instead of ground truth");
  flags.String("save", &save_path, "PATH", "save the repository to PATH");
  flags.Positional("scene.cfg", &config_path);
  flags.ParseOrExit(argc, argv);

  auto scene = LoadSceneConfig(config_path);
  if (!scene.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", config_path.c_str(),
                 scene.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %s: %d participants, %d cameras, %d frames @ %.2f "
              "fps\n\n",
              config_path.c_str(), scene.value().NumParticipants(),
              scene.value().rig().NumCameras(),
              scene.value().num_frames(), scene.value().fps());

  PipelineOptions options;
  options.mode =
      vision ? PipelineMode::kFullVision : PipelineMode::kGroundTruth;
  options.eye_contact.angular_tolerance_deg = vision ? 12.0 : 0.0;
  options.seat_prior_from_scene = vision;
  options.analyze_emotions = !vision;  // avoid demo-time training
  MetadataRepository repository;
  DiEventPipeline pipeline(&scene.value(), options);
  auto report = pipeline.Run(&repository);
  if (!report.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.value().Summary().c_str());
  std::printf("engagement:\n%s",
              ComputeEngagement(repository).ToString().c_str());

  if (!save_path.empty()) {
    Status st = repository.Save(save_path);
    std::printf("\nrepository: %s\n",
                st.ok() ? save_path.c_str() : st.ToString().c_str());
  }
  return 0;
}
