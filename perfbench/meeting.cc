/// \file meeting.cc
/// meeting_fullvision: the paper's prototype meeting (610 frames, four
/// 640x480 cameras, four participants) through DiEventPipeline::Run in
/// full-vision mode with the pipelined executor sized to the host.
///
/// Untraced run: set-up (scenario + emotion-recognizer training) is
/// repeated five times and its median reported; then whole Runs are
/// timed back to back until the requested time is spent.
///
/// Traced run: a bench-side replica of the sequential executor's
/// per-frame sequence, built only from public calls with a span around
/// each layer call, checked against Run at num_threads = 1.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/eye_contact.h"
#include "analysis/fusion.h"
#include "analysis/overall_emotion.h"
#include "bench.h"
#include "common/rng.h"
#include "core/frame_analyzer.h"
#include "core/pipeline.h"
#include "ml/emotion_recognizer.h"
#include "sim/scenario.h"
#include "video/parser.h"
#include "video/shot_detection.h"
#include "video/synthetic_source.h"

namespace perfbench {

using namespace dievent;

namespace {

constexpr int kSetupReps = 5;
constexpr int kMinRuns = 2;

PipelineOptions MeetingOptions(uint64_t seed, int threads,
                               const EmotionRecognizer* recognizer) {
  PipelineOptions opt;
  opt.mode = PipelineMode::kFullVision;
  opt.num_threads = threads;
  opt.prefetch_depth = threads > 1 ? threads : 0;
  opt.analyze_emotions = true;
  opt.parse_video = true;
  opt.eye_contact.angular_tolerance_deg = 12.0;
  opt.noise_seed = seed;
  opt.recognizer = recognizer;
  return opt;
}

struct Setup {
  std::unique_ptr<DiningScene> scene;
  std::unique_ptr<EmotionRecognizer> recognizer;
};

/// Builds the scenario and trains the recognizer exactly as Run would
/// (its Rng is seeded with PipelineOptions::seed).
bool DoSetup(Setup* setup, SpanRecorder* rec) {
  setup->scene = std::make_unique<DiningScene>(MakeMeetingScenario());
  ScopedSpan span(rec, "ml.train");
  PipelineOptions defaults;
  Rng rng(defaults.seed);
  Result<EmotionRecognizer> trained =
      EmotionRecognizer::Train(defaults.emotion, &rng);
  if (!trained.ok()) {
    std::fprintf(stderr, "perfbench: training failed: %s\n",
                 trained.status().ToString().c_str());
    return false;
  }
  setup->recognizer =
      std::make_unique<EmotionRecognizer>(std::move(trained).TakeValue());
  return true;
}

/// The paper's Fig. 9 invariants plus vision-vs-truth agreement.
void CheckReport(const DiEventReport& r, const std::string& tag,
                 Outcome* out) {
  out->Check(r.frames_processed == 610, tag + ": 610 frames committed");
  out->Check(r.degradation.frames_skipped == 0, tag + ": no skipped frames");
  out->Check(r.summary.size() == 4 && r.summary.At(0, 2) == 357,
             tag + ": look-at (P1,P3) = 357");
  out->Check(r.dominant_participant == 0, tag + ": P1 dominant");
  out->Check(r.accuracy.lookat_cell_accuracy == 1.0,
             tag + ": look-at cell accuracy 1.000");
}

bool SameLookAt(const MetadataRepository& a, const MetadataRepository& b) {
  const auto& x = a.lookat_records();
  const auto& y = b.lookat_records();
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].frame != y[i].frame || x[i].timestamp_s != y[i].timestamp_s ||
        x[i].n != y[i].n || x[i].cells != y[i].cells) {
      return false;
    }
  }
  return true;
}

bool SameEmotions(const MetadataRepository& a, const MetadataRepository& b) {
  const auto& x = a.emotion_records();
  const auto& y = b.emotion_records();
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].frame != y[i].frame || x[i].participant != y[i].participant ||
        x[i].emotion != y[i].emotion || x[i].confidence != y[i].confidence) {
      return false;
    }
  }
  return true;
}

bool SameStructure(const VideoStructure& a, const VideoStructure& b) {
  if (a.num_frames != b.num_frames || a.fps != b.fps ||
      a.scenes.size() != b.scenes.size()) {
    return false;
  }
  for (size_t s = 0; s < a.scenes.size(); ++s) {
    const auto& x = a.scenes[s].shots;
    const auto& y = b.scenes[s].shots;
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].begin_frame != y[i].begin_frame ||
          x[i].end_frame != y[i].end_frame ||
          x[i].key_frames != y[i].key_frames) {
        return false;
      }
    }
  }
  return true;
}

/// Square crop around a detection with the training-crop geometry (face
/// radius = 0.46 * crop size), as the pipeline crops for emotions.
void CropFace(const ImageRgb& frame, const FaceDetection& det,
              ImageRgb* out) {
  const double half = det.radius_px / 0.92;
  const int size = std::max(8, static_cast<int>(2.0 * half));
  frame.CropInto(static_cast<int>(det.center_px.x - half),
                 static_cast<int>(det.center_px.y - half), size, size, out);
}

struct ReplicaResult {
  MetadataRepository repo;
  VideoStructure structure;
  LookAtSummary summary;
  long long views = 0;
  long long faces = 0;
  long long frames = 0;
};

/// The sequential executor's per-frame sequence (acquire, per-camera
/// stateless vision, parse signature, ordered commit, emotion pick,
/// look-at, accuracy bookkeeping, overall emotion, repository writes;
/// then the parse), each layer call wrapped in a span.
Status RunReplica(const DiningScene& scene, const PipelineOptions& opt,
                  const EmotionRecognizer& recognizer, SpanRecorder* rec,
                  ReplicaResult* res) {
  ScopedSpan root(rec, "replica");
  const int n = scene.NumParticipants();
  const int num_cameras = scene.rig().NumCameras();

  std::atomic<int64_t> acquire_parent{0};
  std::vector<std::unique_ptr<VideoSource>> sources;
  std::vector<int> cameras;
  for (int c = 0; c < num_cameras; ++c) {
    cameras.push_back(c);
    sources.push_back(std::make_unique<TimedVideoSource>(
        std::make_unique<SyntheticVideoSource>(
            &scene, c, opt.render, opt.scripts,
            opt.noise_seed == 0
                ? 0
                : opt.noise_seed + static_cast<uint64_t>(c) * 7919),
        rec, &acquire_parent));
  }
  DIEVENT_ASSIGN_OR_RETURN(
      MultiCameraSource multi,
      MultiCameraSource::Create(std::move(sources), opt.acquisition));

  FrameAnalyzerOptions engine_options;
  engine_options.vision = opt.vision;
  engine_options.recognizer_reject_distance = opt.recognizer_reject_distance;
  engine_options.tracker = opt.tracker;
  engine_options.fusion = opt.fusion;
  engine_options.eye_contact = opt.eye_contact;
  engine_options.num_threads = 1;
  std::vector<ParticipantProfile> profiles;
  for (const auto& p : scene.participants()) profiles.push_back(p.profile);
  DIEVENT_ASSIGN_OR_RETURN(
      FrameAnalyzer engine,
      FrameAnalyzer::Create(&scene.rig(), std::move(profiles),
                            engine_options, cameras));

  EyeContactDetector ec(opt.eye_contact);
  OverallEmotionEstimator overall(opt.overall_emotion);
  ShotBoundaryDetector signer(opt.parsing.shot);
  std::vector<std::optional<Histogram>> signatures;
  res->summary = LookAtSummary(n);
  res->repo = MetadataRepository();
  res->repo.set_fps(scene.fps());
  ImageRgb crop;
  long long cell_agree = 0;

  for (int f = 0; f < scene.num_frames(); ++f) {
    const double t = scene.TimeOfFrame(f);
    SynchronizedFrameSet set;
    {
      ScopedSpan span(rec, "video.acquire");
      acquire_parent.store(span.id());
      DIEVENT_ASSIGN_OR_RETURN(set, multi.GetFrames(f));
    }
    if (set.NumUsable() < opt.acquisition.min_camera_quorum) {
      return Status::Internal("replica: frame below quorum");
    }
    std::vector<CameraFrameQuality> quality(num_cameras,
                                            CameraFrameQuality::kAbsent);
    std::vector<ImageRgb> frames(num_cameras);
    int parse_ref = -1;
    for (int c = 0; c < num_cameras; ++c) {
      CameraFrame& slot = set.cameras[c];
      if (!slot.usable()) continue;
      quality[c] = slot.status == CameraFrameStatus::kHeld
                       ? CameraFrameQuality::kStale
                       : CameraFrameQuality::kFresh;
      frames[c] = std::move(slot.frame.image);
      if (parse_ref < 0) parse_ref = c;
    }

    std::vector<CameraVision> vision(num_cameras);
    for (int c = 0; c < num_cameras; ++c) {
      if (quality[c] == CameraFrameQuality::kAbsent) continue;
      ScopedSpan span(rec, "core.analyze_camera");
      vision[c] = engine.AnalyzeCameraStateless(c, frames[c], quality[c]);
      ++res->views;
      res->faces += static_cast<long long>(vision[c].obs.size());
    }
    std::optional<Histogram> signature;
    if (parse_ref >= 0) {
      ScopedSpan span(rec, "video.signature");
      signature = signer.Signature(frames[parse_ref]);
    }

    FrameAnalysis analysis;
    std::vector<ParticipantGeometry> geometry;
    {
      ScopedSpan span(rec, "core.commit");
      DIEVENT_ASSIGN_OR_RETURN(
          analysis, engine.CommitFrame(f, std::move(vision), quality));
      geometry = ToGeometry(analysis.fused);
      for (int i = 0; i < n; ++i) {
        if (analysis.fused[i].num_views == 0) {
          geometry[i].gaze_direction.reset();
        }
      }
    }
    signatures.push_back(std::move(signature));

    std::vector<EmotionObservation> emotions;
    for (int i = 0; i < n; ++i) {
      EmotionObservation eo;
      eo.participant = i;
      const FaceObservation* best = nullptr;
      int best_cam = -1;
      for (int c = 0; c < num_cameras; ++c) {
        for (const FaceObservation& o : analysis.per_camera[c]) {
          if (o.identity == i && o.detection.front_facing &&
              (best == nullptr ||
               o.detection.radius_px > best->detection.radius_px)) {
            best = &o;
            best_cam = c;
          }
        }
      }
      if (best != nullptr && best->detection.radius_px >= 8.0) {
        ScopedSpan span(rec, "ml.emotion");
        CropFace(frames[best_cam], best->detection, &crop);
        EmotionPrediction p = recognizer.Recognize(crop);
        eo.emotion = p.emotion;
        eo.confidence = p.confidence;
      }
      emotions.push_back(eo);
    }

    LookAtMatrix lookat;
    {
      ScopedSpan span(rec, "analysis.lookat");
      lookat = ec.ComputeLookAt(geometry);
      DIEVENT_RETURN_NOT_OK(res->summary.Accumulate(lookat));
    }
    {
      // The pipeline's vision-vs-truth bookkeeping for this frame.
      ScopedSpan span(rec, "core.accuracy");
      std::vector<ParticipantState> gt = scene.StateAt(t);
      std::vector<std::vector<bool>> gt_look = scene.GroundTruthLookAt(t);
      for (int x = 0; x < n; ++x) {
        for (int y = 0; y < n; ++y) {
          if (x != y && lookat.At(x, y) == gt_look[x][y]) ++cell_agree;
        }
      }
    }
    OverallEmotion oe;
    {
      ScopedSpan span(rec, "analysis.overall_emotion");
      oe = overall.Update(f, t, emotions);
    }
    {
      ScopedSpan span(rec, "metadata.add");
      DIEVENT_RETURN_NOT_OK(
          res->repo.AddLookAt(LookAtRecord::FromMatrix(f, t, lookat)));
      for (const EmotionObservation& eo : emotions) {
        if (!eo.emotion) continue;
        EmotionRecord er;
        er.frame = f;
        er.timestamp_s = t;
        er.participant = eo.participant;
        er.emotion = *eo.emotion;
        er.confidence = eo.confidence;
        DIEVENT_RETURN_NOT_OK(res->repo.AddEmotion(er));
      }
      OverallEmotionRecord orec;
      orec.frame = f;
      orec.timestamp_s = t;
      orec.overall_happiness = oe.overall_happiness;
      orec.mean_valence = oe.mean_valence;
      orec.observed = oe.observed;
      DIEVENT_RETURN_NOT_OK(res->repo.AddOverallEmotion(orec));
    }
    ++res->frames;
  }
  {
    ScopedSpan span(rec, "video.parse");
    res->structure = VideoParser(opt.parsing)
                         .ParseFromSparseHistograms(signatures, scene.fps());
  }
  if (cell_agree != res->frames * n * (n - 1)) {
    return Status::Internal("replica: look-at cells disagree with truth");
  }
  return Status::OK();
}

void RunTraced(const Args& args, Outcome* out) {
  SpanRecorder rec;
  Setup setup;
  if (!DoSetup(&setup, &rec)) return;
  const DiningScene& scene = *setup.scene;
  const PipelineOptions seq = MeetingOptions(args.seed, 1, setup.recognizer.get());

  std::vector<double> replica_s, run_s;
  double views = 0, faces = 0, frames = 0;
  const double start = NowS();
  while (replica_s.empty() || NowS() - start < args.seconds) {
    ReplicaResult replica;
    const double r0 = NowS();
    Status st = RunReplica(scene, seq, *setup.recognizer, &rec, &replica);
    const double r1 = NowS();
    out->Check(st.ok(), "replica: " + st.ToString());
    if (!st.ok()) return;
    replica_s.push_back(r1 - r0);

    MetadataRepository repo;
    Result<DiEventReport> report = DiEventPipeline(&scene, seq).Run(&repo);
    run_s.push_back(NowS() - r1);
    out->Check(report.ok(), "sequential run: " + report.status().ToString());
    if (!report.ok()) return;
    CheckReport(report.value(), "sequential run", out);
    out->Check(SameLookAt(replica.repo, repo),
               "replica look-at records equal Run's");
    out->Check(SameEmotions(replica.repo, repo),
               "replica emotion records equal Run's");
    out->Check(SameStructure(replica.structure, report.value().structure),
               "replica VideoStructure equals Run's");
    out->Check(SameSummary(replica.summary, report.value().summary),
               "replica look-at summary equals Run's");
    out->Check(replica.views > 0, "replica analyzed views");
    views += static_cast<double>(replica.views);
    faces += static_cast<double>(replica.faces);
    frames += static_cast<double>(replica.frames);
  }

  // Unattributed: the replica roots' self time over their wall time.
  const SpanStats stats(rec.spans());
  double root_wall = 0;
  for (double s : replica_s) root_wall += s;
  LayerCounts counts;
  counts["vision.faces_per_view"] = views > 0 ? faces / views : 0;
  counts["ml.emotion_calls_per_frame"] =
      frames > 0 ? static_cast<double>(stats.Count("ml.emotion")) / frames
                 : 0;
  counts["ledger.unattributed_share"] =
      root_wall > 0 ? stats.SumSelf("replica") / root_wall : 0;
  counts["trace.overhead_share"] = Median(replica_s) / Median(run_s) - 1.0;
  out->AddPerLayer(rec, counts, args.trace_path);
}

void RunUntraced(const Args& args, Outcome* out) {
  std::vector<double> setup_reps;
  Setup setup;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = NowS();
    Setup attempt;
    if (!DoSetup(&attempt, nullptr)) {
      out->Check(false, "set-up");
      return;
    }
    setup_reps.push_back(NowS() - t0);
    setup = std::move(attempt);
  }
  const DiningScene& scene = *setup.scene;
  const PipelineOptions base =
      MeetingOptions(args.seed, args.nproc, setup.recognizer.get());

  Measured m;
  m.Reserve(1 << 16);
  m.setup_reps_s = setup_reps;
  std::vector<double> commit_times;
  commit_times.reserve(scene.num_frames());
  long long records = 0;
  int runs = 0;
  const double start = NowS();
  while (runs < kMinRuns || NowS() - start < args.seconds) {
    PipelineOptions opt = base;
    commit_times.clear();
    opt.on_frame_committed = [&commit_times](int, double) {
      commit_times.push_back(NowS());
    };
    MetadataRepository repo;
    const double c0 = ProcessCpuS();
    const double t0 = NowS();
    Result<DiEventReport> report = DiEventPipeline(&scene, opt).Run(&repo);
    const double wall = NowS() - t0;
    m.cpu_s += ProcessCpuS() - c0;
    ++runs;
    out->Check(report.ok(), "run: " + report.status().ToString());
    if (!report.ok()) return;
    CheckReport(report.value(), "run", out);
    out->attempted += report.value().frames_processed;
    records += static_cast<long long>(repo.TotalRecords());
    for (size_t i = 0; i < commit_times.size(); ++i) {
      m.done_at_s.push_back(m.timed_s + commit_times[i] - t0);
      if (i > 0) {
        m.latencies_ms.push_back(1e3 * (commit_times[i] - commit_times[i - 1]));
      }
    }
    m.timed_s += wall;
  }
  const double records_per_frame =
      static_cast<double>(records) / std::max<size_t>(1, m.done_at_s.size());
  for (double r : WindowRates(m.done_at_s, m.timed_s, 10)) {
    m.record_rates.push_back(r * records_per_frame);
  }
  out->AddEndToEnd(std::move(m));
}

}  // namespace

void RunMeeting(const Args& args, Outcome* out) {
  if (args.trace) {
    RunTraced(args, out);
  } else {
    RunUntraced(args, out);
  }
}

}  // namespace perfbench
