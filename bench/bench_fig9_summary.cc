// FIG-9: reproduces paper Fig. 9 — the look-at matrix *summary*: the sum
// of the per-frame look-at matrices over all 610 frames of the prototype
// video.
//
// Paper-reported facts:
//   - entry (P1, P3) = 357: the yellow participant looked at the green
//     one in 357 of 610 frames;
//   - the diagonal is zero;
//   - P1's column sum is the maximum -> P1 dominates the meeting.
//
// The bench runs the DiEvent pipeline twice: in ground-truth mode (the
// analysis layer on exact geometry, which reproduces the numbers exactly
// by construction of the scripted scenario) and in full-vision mode
// (rendered frames through detection/recognition/gaze/fusion), reporting
// how the measured summary and accuracy compare.

#include <cstdio>

#include "bench_common.h"
#include "core/pipeline.h"

namespace dievent {
namespace {

using bench::PrintHeader;

void PrintSummary(const LookAtSummary& s,
                  const std::vector<std::string>& names) {
  std::printf("%s", s.ToString(names).c_str());
  std::printf("column sums:");
  for (int y = 0; y < s.size(); ++y)
    std::printf(" %s=%lld", names[y].c_str(), s.ColumnSum(y));
  std::printf("\ndominant participant: %s\n",
              names[s.DominantParticipant()].c_str());
}

int Run() {
  DiningScene scene = MakeMeetingScenario();
  std::vector<std::string> names = bench::Names(scene);

  PrintHeader("Fig. 9 — look-at summary over 610 frames");
  std::printf(
      "paper: (P1,P3) = 357; zero diagonal; P1 column-sum maximal "
      "(dominant)\n");

  {
    PrintHeader("ground-truth mode (exact geometry, all 610 frames)");
    PipelineOptions opt;
    opt.mode = PipelineMode::kGroundTruth;
    opt.parse_video = false;
    opt.analyze_emotions = false;
    MetadataRepository repo;
    auto report = DiEventPipeline(&scene, opt).Run(&repo);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    PrintSummary(report.value().summary, names);
    bool ok = report.value().summary.At(0, 2) == 357 &&
              report.value().dominant_participant == 0;
    std::printf("paper facts reproduced: %s\n", ok ? "YES" : "NO");
    std::printf("eye-contact episodes detected: %zu\n",
                report.value().eye_contact_episodes.size());
  }

  {
    PrintHeader("full-vision mode (rendered frames, all 610 frames)");
    PipelineOptions opt;
    opt.mode = PipelineMode::kFullVision;
    opt.parse_video = false;
    opt.analyze_emotions = false;
    opt.eye_contact.angular_tolerance_deg = 12.0;
    MetadataRepository repo;
    auto report = DiEventPipeline(&scene, opt).Run(&repo);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    const DiEventReport& r = report.value();
    PrintSummary(r.summary, names);
    std::printf(
        "measured (P1,P3) = %lld (paper 357, relative error %+.1f%%)\n",
        r.summary.At(0, 2),
        100.0 * (static_cast<double>(r.summary.At(0, 2)) - 357.0) / 357.0);
    std::printf(
        "vision accuracy: cell %.3f, edge P %.3f / R %.3f, "
        "pos err %.3f m, gaze err %.1f deg, gaze coverage %.2f\n",
        r.accuracy.lookat_cell_accuracy, r.accuracy.edge_precision,
        r.accuracy.edge_recall, r.accuracy.mean_position_error_m,
        r.accuracy.mean_gaze_error_deg, r.accuracy.gaze_coverage);
    std::printf(
        "stage timings (s): acquire %.2f detect %.2f fuse %.3f "
        "ec %.3f store %.3f (total %.2f for %d frames -> %.1f fps)\n",
        r.timings.acquisition, r.timings.detection, r.timings.fusion,
        r.timings.eye_contact, r.timings.storage,
        r.timings.Total(), r.frames_processed,
        r.frames_processed / r.timings.Total());
  }
  return 0;
}

}  // namespace
}  // namespace dievent

int main() { return dievent::Run(); }
