#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>

#include "common/cancellation.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/frame_analyzer.h"
#include "geometry/ray.h"
#include "metadata/durable_store.h"
#include "video/acquisition_supervisor.h"

namespace dievent {

namespace {

/// Adds the elapsed seconds since construction to `*sink`. Reads the
/// injected clock, so stage timings are simulated under SimClock and
/// wall-clock in production.
class StageTimer {
 public:
  StageTimer(VirtualClock* clock, double* sink)
      : clock_(clock), sink_(sink), start_(clock->Now()) {}
  ~StageTimer() {
    *sink_ += VirtualClock::ToSeconds(clock_->Now() - start_);
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  VirtualClock* clock_;
  double* sink_;
  VirtualClock::TimePoint start_;
};

EventContext ContextFromScene(const DiningScene& scene) {
  EventContext ctx;
  ctx.event_id = "dievent-run";
  ctx.location = "simulated dining room";
  ctx.occasion = "dining event";
  ctx.num_participants = scene.NumParticipants();
  for (const auto& p : scene.participants()) {
    ctx.participant_names.push_back(p.profile.name);
  }
  return ctx;
}

/// Emotion of one detected face: a square crop matching the training-crop
/// geometry (face radius = 0.46 * crop size), classified by `recognizer`.
/// The speculating vision tasks and the commit both predict through here;
/// the crop buffer is per thread, so no call allocates one.
EmotionPrediction PredictEmotion(const EmotionRecognizer& recognizer,
                                 const ImageRgb& frame,
                                 const FaceDetection& det) {
  thread_local ImageRgb crop;
  double half = det.radius_px / 0.92;
  int size = std::max(8, static_cast<int>(2.0 * half));
  int x0 = static_cast<int>(det.center_px.x - half);
  int y0 = static_cast<int>(det.center_px.y - half);
  frame.CropInto(x0, y0, size, size, &crop);
  return recognizer.Recognize(crop);
}

}  // namespace

std::string DegradationStats::ToString() const {
  std::string out = StrFormat(
      "frames: %d healthy, %d degraded, %d skipped (below quorum); "
      "retries %lld, held frames %lld, quarantine events %d, "
      "readmissions %d\n",
      frames_fully_healthy, frames_degraded, frames_skipped, retries_spent,
      frames_held, quarantine_events, readmissions);
  for (size_t c = 0; c < camera_drops.size(); ++c) {
    long long corruptions =
        c < camera_corruptions.size() ? camera_corruptions[c] : 0;
    if (camera_drops[c] == 0 && corruptions == 0) continue;
    out += StrFormat("  camera %zu: %lld dropped reads, %lld corrupted\n",
                     c, camera_drops[c], corruptions);
  }
  if (!cameras_quarantined.empty()) {
    out += "  quarantined at end of run:";
    for (int c : cameras_quarantined) out += StrFormat(" %d", c);
    out += "\n";
  }
  if (deadline_misses > 0 || watchdog_interrupts > 0 ||
      reader_restarts > 0) {
    out += StrFormat(
        "  supervisor: %lld deadline misses, %d watchdog interrupts, "
        "%d reader restarts\n",
        deadline_misses, watchdog_interrupts, reader_restarts);
  }
  if (resync_corrections > 0) {
    out += StrFormat(
        "  clock resync: %lld corrections (%lld misalignments), worst "
        "jitter %.4fs\n",
        resync_corrections, resync_misalignments, max_timestamp_jitter_s);
  }
  if (parse_signatures_missing > 0 || parse_reference_switches > 0) {
    out += StrFormat(
        "  parsing: %d missing signatures (%d filled by interpolation), "
        "%d frames signed by a fallback camera\n",
        parse_signatures_missing, parse_signatures_interpolated,
        parse_reference_switches);
  }
  if (journal_records > 0 || checkpoints_committed > 0 ||
      resumed_from_frame >= 0) {
    out += StrFormat(
        "  durability: %lld journal records (%lld bytes), %d checkpoints\n",
        journal_records, journal_bytes, checkpoints_committed);
  }
  if (resumed_from_frame >= 0) {
    out += StrFormat(
        "  resume: continued after durable frame %d (%d stored frame "
        "records reused)\n",
        resumed_from_frame, resume_reused_frames);
  }
  return out;
}

std::string DiEventReport::Summary() const {
  std::string out;
  out += StrFormat("frames processed: %d\n", frames_processed);
  out += "look-at summary:\n" + summary.ToString(participant_names);
  std::string dominant =
      dominant_participant >= 0 &&
              dominant_participant <
                  static_cast<int>(participant_names.size())
          ? participant_names[dominant_participant]
          : StrFormat("P%d", dominant_participant + 1);
  out += StrFormat("dominant participant: %s\n", dominant.c_str());
  out += StrFormat("eye-contact episodes: %zu\n",
                   eye_contact_episodes.size());
  out += StrFormat("mean overall happiness: %.3f, mean valence: %.3f\n",
                   mean_overall_happiness, mean_valence);
  out += StrFormat(
      "timings (s): acquire %.2f, detect %.2f, fuse %.2f, eye-contact "
      "%.3f, emotion %.2f, parse %.2f, store %.3f\n",
      timings.acquisition, timings.detection, timings.fusion,
      timings.eye_contact, timings.emotion, timings.parsing,
      timings.storage);
  if (degradation.Degraded()) {
    out += "acquisition degradation:\n" + degradation.ToString();
  }
  return out;
}

namespace {

/// One frame in flight through the executor. Acquisition fills it on the
/// calling thread; its camera tasks (vision, plus the parse signature on
/// the parse-reference camera) each write only their own slots, inline
/// or on pool workers; the ordered commit consumes it.
struct FrameWork {
  int f = 0;
  double t = 0;
  std::vector<ParticipantState> gt;  ///< simulator truth at t
  SynchronizedFrameSet set;          ///< the kFullVision camera read
  bool analyzable = true;            ///< the read reached the quorum
  /// Decoded images per camera slot (kGroundTruth: the camera-0 parse
  /// frame only). A pooled camera task empties its slot when it is done.
  std::vector<ImageRgb> frames;
  std::vector<CameraFrameQuality> quality;
  std::vector<CameraVision> vision;
  int parse_ref = -1;  ///< the slot that signs the parse timeline
  std::optional<Histogram> signature;
  /// Speculative emotion predictions per (camera slot, observation),
  /// filled by pooled vision tasks for every candidate the commit could
  /// possibly select.
  std::vector<std::vector<std::optional<EmotionPrediction>>> emotion_cache;
  std::vector<double> vision_seconds;   // per camera, stateless stage
  std::vector<double> emotion_seconds;  // per camera, speculation
  double signature_seconds = 0;
  std::unique_ptr<TaskGroup> group;  ///< pooled tasks; null when inline
};

/// Vision-vs-ground-truth counters (kFullVision).
struct AccuracyTally {
  long long cell_agree = 0, cell_total = 0;
  long long edge_tp = 0, edge_fp = 0, edge_fn = 0;
  double pos_err_sum = 0;
  long long pos_err_count = 0;
  double gaze_err_sum = 0;
  long long gaze_err_count = 0;
  long long gaze_have = 0, detect_have = 0, pf_total = 0;
  long long emo_correct = 0, emo_total = 0;

  PipelineAccuracy Rates() const {
    PipelineAccuracy acc;
    if (cell_total > 0) {
      acc.lookat_cell_accuracy =
          static_cast<double>(cell_agree) / cell_total;
    }
    if (edge_tp + edge_fp > 0) {
      acc.edge_precision =
          static_cast<double>(edge_tp) / (edge_tp + edge_fp);
    }
    if (edge_tp + edge_fn > 0) {
      acc.edge_recall = static_cast<double>(edge_tp) / (edge_tp + edge_fn);
    }
    if (pos_err_count > 0) {
      acc.mean_position_error_m = pos_err_sum / pos_err_count;
    }
    if (gaze_err_count > 0) {
      acc.mean_gaze_error_deg = gaze_err_sum / gaze_err_count;
    }
    if (pf_total > 0) {
      acc.gaze_coverage = static_cast<double>(gaze_have) / pf_total;
      acc.detection_coverage =
          static_cast<double>(detect_have) / pf_total;
    }
    if (emo_total > 0) {
      acc.emotion_accuracy = static_cast<double>(emo_correct) / emo_total;
    }
    return acc;
  }
};

/// The state of one DiEventPipeline::Run and its per-frame stages.
///
/// Both modes go through one windowed executor (Loop). A frame source
/// fills each FrameWork: the synchronized camera read in kFullVision,
/// simulator truth plus the camera-0 parse decode in kGroundTruth. The
/// frame's tasks run inline (one worker: a window of one frame, the
/// sequential reference) or fan out on a pool (more workers: a window of
/// several frames). Determinism contract: every mutation of report,
/// repository, tracker and accumulator state happens in Commit, called
/// on the calling thread in frame order, so every worker count and
/// prefetch depth is bit-identical at equal options and seeds.
class PipelineRun {
 public:
  PipelineRun(const DiningScene& scene, const PipelineOptions& options,
              std::vector<int> cameras, MetadataRepository* repository)
      : scene_(scene),
        options_(options),
        full_(options.mode == PipelineMode::kFullVision),
        clock_(options.clock != nullptr ? options.clock : RealClock::Get()),
        cameras_(std::move(cameras)),
        num_cameras_(static_cast<int>(cameras_.size())),
        n_(scene.NumParticipants()),
        repository_(repository),
        store_(options.store),
        recognizer_(options.recognizer),
        ec_detector_(options.eye_contact),
        overall_(options.overall_emotion),
        signature_maker_(options.parsing.shot) {}

  // Pool tasks hold `this`.
  PipelineRun(const PipelineRun&) = delete;
  PipelineRun& operator=(const PipelineRun&) = delete;

  /// Opens (or resumes) the repository and builds every stage.
  Status SetUp() {
    int resume_after_frame = -1;
    DIEVENT_RETURN_NOT_OK(OpenRepository(&resume_after_frame));
    report_.summary = LookAtSummary(n_);
    for (const auto& p : scene_.participants()) {
      report_.participant_names.push_back(p.profile.name);
    }
    DIEVENT_RETURN_NOT_OK(BuildStages());
    if (resume_after_frame >= 0) {
      DIEVENT_RETURN_NOT_OK(RestoreStreamingState(resume_after_frame));
    }
    return Status::OK();
  }

  /// The executor: runs every remaining frame through Commit, in order.
  Status Loop() {
    const ReadAhead plan = PlanReadAhead(options_);
    const int stride = options_.frame_stride;
    const int num_frames = scene_.num_frames();
    if (plan.pump_depth > 0 && start_frame_ < num_frames) {
      DIEVENT_RETURN_NOT_OK(
          multi_->StartPrefetch(start_frame_, stride, plan.pump_depth));
    }

    // A window of frames is in flight at once: the acquisition pump
    // (prefetch_depth > 0) reads ahead, the frames' tasks run, and the
    // head frame is committed in order. Tasks only ever touch their own
    // FrameWork, so the sole synchronization points are the pool queue and
    // each frame's TaskGroup barrier. `inflight` outlives `pool` so queued
    // tasks can never outlive the FrameWork objects they reference.
    Status status;
    std::deque<std::unique_ptr<FrameWork>> inflight;
    std::optional<ThreadPool> pool;
    if (plan.workers > 1) pool.emplace(plan.workers);
    int next_f = start_frame_;
    while (!inflight.empty() || next_f < num_frames) {
      // Cooperative cancellation, polled before each frame is retired, so
      // a cancelled run always stops between committed frames (the durable
      // store never sees a partial frame from cancellation) and names the
      // first uncommitted one.
      if (options_.cancel != nullptr && options_.cancel->cancelled()) {
        status = Status::Cancelled(StrFormat(
            "run cancelled before frame %d",
            inflight.empty() ? next_f : inflight.front()->f));
        break;
      }
      while (static_cast<int>(inflight.size()) < plan.window &&
             next_f < num_frames) {
        auto w = std::make_unique<FrameWork>();
        w->f = next_f;
        status = Acquire(*w);
        if (!status.ok()) break;
        Launch(*w, pool ? &*pool : nullptr);
        inflight.push_back(std::move(w));
        next_f += stride;
      }
      if (!status.ok()) break;
      FrameWork& head = *inflight.front();
      if (head.group != nullptr) head.group->Wait();
      status = Commit(head);
      inflight.pop_front();
      if (!status.ok()) break;
    }
    // On error, drain in-flight tasks before their FrameWork objects die.
    for (auto& w : inflight) {
      if (w->group != nullptr) w->group->Wait();
    }
    inflight.clear();
    if (multi_ != nullptr) multi_->StopPrefetch();
    return status;
  }

  /// Parses the signature timeline, folds acquisition health, writes
  /// the final checkpoint, and assembles the report.
  Result<DiEventReport> Finish() {
    // Video composition analysis.
    if (options_.parse_video && !signatures_.empty()) {
      StageTimer timer(clock_, &report_.timings.parsing);
      VideoParser parser(options_.parsing);
      SparseSignatureInfo sparse_info;
      report_.structure = parser.ParseFromSparseHistograms(
          signatures_, scene_.fps() / options_.frame_stride, &sparse_info);
      report_.degradation.parse_signatures_missing = sparse_info.missing;
      report_.degradation.parse_signatures_interpolated =
          sparse_info.interpolated + sparse_info.extrapolated;
      repository_->SetVideoStructure(report_.structure);
      if (store_ != nullptr) {
        DIEVENT_RETURN_NOT_OK(store_->SetVideoStructure(report_.structure));
      }
    }

    // Degradation accounting.
    if (full_) {
      DegradationStats& deg = report_.degradation;
      for (int c = 0; c < num_cameras_; ++c) {
        const CameraHealth& health = multi_->health(c);
        deg.camera_drops[c] = health.failures;
        deg.retries_spent += health.retries;
        deg.frames_held += health.held;
        deg.quarantine_events += health.quarantine_events;
        deg.readmissions += health.readmissions;
        if (injectors_[c] != nullptr) {
          deg.camera_corruptions[c] = injectors_[c]->counters().corruptions;
        }
        if (multi_->supervisor() != nullptr) {
          const AcquisitionSupervisor::ReaderStats reader_stats =
              multi_->supervisor()->stats(c);
          deg.deadline_misses += reader_stats.deadline_misses;
          deg.watchdog_interrupts += reader_stats.watchdog_interrupts;
          deg.reader_restarts += reader_stats.restarts;
          deg.max_queue_depth =
              std::max(deg.max_queue_depth, reader_stats.max_queue_depth);
        }
        const TimestampResampler::Stats& resync = multi_->resampler(c).stats();
        deg.resync_corrections += resync.corrections;
        deg.resync_misalignments += resync.misalignments;
        deg.max_timestamp_jitter_s =
            std::max(deg.max_timestamp_jitter_s, resync.max_jitter_s);
      }
      deg.cameras_quarantined = multi_->QuarantinedCameras();
      if (report_.frames_processed == 0 && deg.frames_skipped > 0) {
        return Status::FailedPrecondition(StrFormat(
            "no frame set reached the camera quorum (%d of %d cameras "
            "required): %d frame sets skipped",
            options_.acquisition.min_camera_quorum, num_cameras_,
            deg.frames_skipped));
      }
    }

    // Final durable checkpoint: folds everything the run journaled
    // (including the parse structure) into one snapshot, so a clean exit
    // leaves a compact store.
    if (store_ != nullptr) {
      {
        StageTimer timer(clock_, &report_.timings.storage);
        DIEVENT_RETURN_NOT_OK(store_->Checkpoint());
      }
      const DurableStoreStats store_stats = store_->stats();
      report_.degradation.journal_records =
          static_cast<long long>(store_stats.records_appended);
      report_.degradation.journal_bytes =
          static_cast<long long>(store_stats.bytes_appended);
      report_.degradation.checkpoints_committed =
          static_cast<int>(store_stats.checkpoints);
    }

    report_.dominant_participant = report_.summary.DominantParticipant();
    // Records are frame_stride apart, so the inter-record spacing itself
    // must not break an episode; allowing one missing record bridges brief
    // detector dropouts exactly as max_gap=1 does at stride 1.
    report_.eye_contact_episodes = repository_->EyeContactEpisodes(
        /*min_length=*/2, /*max_gap=*/2 * options_.frame_stride - 1);
    // Episodes bridging degraded or below-quorum stretches carry lowered
    // confidence instead of looking as trustworthy as fully observed ones.
    AnnotateEpisodeAcquisition(&report_.eye_contact_episodes,
                               health_timeline_);
    report_.emotion_timeline = overall_.timeline();
    report_.mean_overall_happiness = overall_.MeanHappiness();
    report_.mean_valence = overall_.MeanValence();
    report_.accuracy = accuracy_.Rates();
    return std::move(report_);
  }

 private:
  /// Checks the durable store for a previous run's frames and either
  /// adopts them (resume) or starts the repository afresh.
  Status OpenRepository(int* resume_after_frame) {
    if (store_ != nullptr) {
      DIEVENT_RETURN_NOT_OK(store_->broken());
      const std::vector<LookAtRecord>& durable =
          store_->repository().lookat_records();
      if (!durable.empty()) *resume_after_frame = durable.back().frame;
      if (*resume_after_frame >= 0 && options_.analyze_emotions) {
        // A frame is committed by its overall-emotion record — the last
        // record StoreFrame journals for it. A look-at record past the
        // last overall record is the partial tail of a crash mid-frame:
        // durably rewind to the last whole frame so it is reprocessed
        // complete instead of resumed half-written (which would drop its
        // remaining records or duplicate the ones already journaled).
        const std::vector<OverallEmotionRecord>& committed =
            store_->repository().overall_records();
        const int last_complete =
            committed.empty() ? -1 : committed.back().frame;
        if (last_complete < *resume_after_frame) {
          DIEVENT_RETURN_NOT_OK(store_->RewindToFrame(last_complete));
          *resume_after_frame = last_complete;
        }
      }
      if (*resume_after_frame >= 0) {
        if (full_) {
          return Status::FailedPrecondition(
              "durable store already holds frame records; full-vision runs "
              "cannot resume (tracker state is not checkpointed) — open a "
              "fresh store directory or resume in ground-truth mode");
        }
        if (*resume_after_frame % options_.frame_stride != 0) {
          return Status::FailedPrecondition(StrFormat(
              "durable frame %d is not aligned to frame_stride %d; the "
              "store was written by a run with different options",
              *resume_after_frame, options_.frame_stride));
        }
      }
    }

    if (*resume_after_frame >= 0) {
      // Resume: adopt the recovered repository — context, fps, and every
      // acknowledged record — instead of starting over.
      *repository_ = store_->repository();
      return Status::OK();
    }
    *repository_ = MetadataRepository();
    repository_->SetContext(ContextFromScene(scene_));
    repository_->set_fps(scene_.fps());
    if (store_ != nullptr) {
      DIEVENT_RETURN_NOT_OK(store_->SetContext(repository_->context()));
      DIEVENT_RETURN_NOT_OK(store_->SetFps(scene_.fps()));
    }
    return Status::OK();
  }

  /// Trains the emotion recognizer when none was shared, and builds the
  /// frame sources and the vision engine.
  Status BuildStages() {
    if (options_.analyze_emotions && full_ && recognizer_ == nullptr) {
      Rng rng(options_.seed);
      StageTimer timer(clock_, &report_.timings.training);
      DIEVENT_ASSIGN_OR_RETURN(
          EmotionRecognizer trained,
          EmotionRecognizer::Train(options_.emotion, &rng));
      owned_recognizer_ =
          std::make_unique<EmotionRecognizer>(std::move(trained));
      recognizer_ = owned_recognizer_.get();
    }

    auto make_source = [&](int c) -> std::unique_ptr<VideoSource> {
      return std::make_unique<SyntheticVideoSource>(
          &scene_, cameras_[c], options_.render, options_.scripts,
          options_.noise_seed == 0
              ? 0
              : options_.noise_seed + static_cast<uint64_t>(c) * 7919);
    };
    report_.degradation.camera_drops.assign(num_cameras_, 0);
    report_.degradation.camera_corruptions.assign(num_cameras_, 0);
    injectors_.assign(num_cameras_, nullptr);
    if (!full_) {
      parse_source_ = make_source(0);
      return Status::OK();
    }

    std::vector<std::unique_ptr<VideoSource>> cam_sources;
    for (int c = 0; c < num_cameras_; ++c) {
      std::unique_ptr<VideoSource> src = make_source(c);
      if (!options_.camera_faults.empty() &&
          options_.camera_faults[c].HasFaults()) {
        auto faulty = std::make_unique<FaultyVideoSource>(
            std::move(src), options_.camera_faults[c], options_.clock);
        injectors_[c] = faulty.get();
        src = std::move(faulty);
      }
      cam_sources.push_back(std::move(src));
    }
    AcquisitionPolicy acquisition = options_.acquisition;
    if (acquisition.clock == nullptr) acquisition.clock = options_.clock;
    DIEVENT_ASSIGN_OR_RETURN(
        MultiCameraSource multi,
        MultiCameraSource::Create(std::move(cam_sources), acquisition));
    multi_ = std::make_unique<MultiCameraSource>(std::move(multi));

    FrameAnalyzerOptions engine_options;
    engine_options.vision = options_.vision;
    engine_options.recognizer_reject_distance =
        options_.recognizer_reject_distance;
    engine_options.tracker = options_.tracker;
    engine_options.fusion = options_.fusion;
    if (options_.seat_prior_from_scene &&
        engine_options.fusion.seat_prior.empty()) {
      for (const auto& p : scene_.participants()) {
        engine_options.fusion.seat_prior.push_back(p.seat_head_position);
      }
    }
    engine_options.eye_contact = options_.eye_contact;
    // The executor owns all parallelism (per-(frame, camera) fan-out); the
    // engine's internal per-camera pool would only oversubscribe it.
    engine_options.num_threads = 1;
    std::vector<ParticipantProfile> profiles;
    for (const auto& p : scene_.participants()) {
      profiles.push_back(p.profile);
    }
    DIEVENT_ASSIGN_OR_RETURN(
        FrameAnalyzer engine,
        FrameAnalyzer::Create(&scene_.rig(), std::move(profiles),
                              engine_options, cameras_));
    engine_ = std::make_unique<FrameAnalyzer>(std::move(engine));
    return Status::OK();
  }

  /// Rebuilds every piece of streaming state the recovered records cover,
  /// so the loop continues exactly where the dead run stopped: running
  /// look-at summary, overall-emotion EWMA (the stored values are the
  /// smoothed values, so re-seeding reproduces the uninterrupted timeline
  /// bit for bit), and — because parse signatures are not persisted —
  /// re-decoded camera-0 signatures for the already durable frame
  /// positions.
  Status RestoreStreamingState(int resume_after_frame) {
    start_frame_ = resume_after_frame + options_.frame_stride;
    report_.summary = repository_->Summarize();
    report_.frames_processed =
        static_cast<int>(repository_->lookat_records().size());
    std::vector<OverallEmotion> timeline;
    for (const OverallEmotionRecord& r : repository_->overall_records()) {
      OverallEmotion oe;
      oe.frame = r.frame;
      oe.timestamp_s = r.timestamp_s;
      oe.overall_happiness = r.overall_happiness;
      oe.mean_valence = r.mean_valence;
      oe.observed = r.observed;
      timeline.push_back(oe);
    }
    overall_.Restore(std::move(timeline));
    if (options_.parse_video) {
      for (int f = 0; f < start_frame_ && f < scene_.num_frames();
           f += options_.frame_stride) {
        DIEVENT_ASSIGN_OR_RETURN(ImageRgb image, DecodeParseFrame(f));
        StageTimer timer(clock_, &report_.timings.parsing);
        signatures_.push_back(signature_maker_.Signature(image));
      }
    }
    report_.degradation.resumed_from_frame = resume_after_frame;
    report_.degradation.resume_reused_frames = report_.frames_processed;
    return Status::OK();
  }

  Status Acquire(FrameWork& w) {
    w.t = scene_.TimeOfFrame(w.f);
    w.gt = scene_.StateAt(w.t);
    if (full_) {
      {
        StageTimer timer(clock_, &report_.timings.acquisition);
        DIEVENT_ASSIGN_OR_RETURN(w.set, multi_->GetFrames(w.f));
      }
      Prepare(w);
    } else if (options_.parse_video) {
      DIEVENT_ASSIGN_OR_RETURN(ImageRgb image, DecodeParseFrame(w.f));
      w.frames.push_back(std::move(image));
      w.parse_ref = 0;
    }
    return Status::OK();
  }

  /// Camera 0's frame `f`, the kGroundTruth parsing reference.
  Result<ImageRgb> DecodeParseFrame(int f) {
    StageTimer timer(clock_, &report_.timings.acquisition);
    DIEVENT_ASSIGN_OR_RETURN(VideoFrame vf, parse_source_->GetFrame(f));
    return std::move(vf.image);
  }

  /// Cheap per-frame setup after a kFullVision read: quorum verdict,
  /// quality flags, frame extraction, parse-reference pick. No shared
  /// state.
  void Prepare(FrameWork& w) {
    w.analyzable = w.set.NumUsable() >= options_.acquisition.min_camera_quorum;
    if (!w.analyzable) return;
    w.quality.assign(num_cameras_, CameraFrameQuality::kAbsent);
    w.frames.assign(num_cameras_, ImageRgb());
    for (int c = 0; c < num_cameras_; ++c) {
      CameraFrame& slot = w.set.cameras[c];
      if (!slot.usable()) continue;
      w.quality[c] = slot.status == CameraFrameStatus::kHeld
                         ? CameraFrameQuality::kStale
                         : CameraFrameQuality::kFresh;
      w.frames[c] = std::move(slot.frame.image);
    }
    if (options_.parse_video) {
      // Camera 0 is the nominal parsing reference; when it missed this
      // frame, sign the timeline from the lowest-index usable camera
      // rather than dropping the slot (which would compact the timeline
      // and shift every later shot boundary).
      for (int c = 0; c < num_cameras_ && w.parse_ref < 0; ++c) {
        if (w.quality[c] != CameraFrameQuality::kAbsent) w.parse_ref = c;
      }
    }
    w.vision.resize(num_cameras_);
    w.emotion_cache.resize(num_cameras_);
    w.vision_seconds.assign(num_cameras_, 0.0);
    w.emotion_seconds.assign(num_cameras_, 0.0);
  }

  /// Runs the frame's camera tasks inline (no pool) or fans them out on
  /// `pool`, one task per usable camera slot. kGroundTruth has no camera
  /// tasks: it signs its parse frame inline.
  void Launch(FrameWork& w, ThreadPool* pool) {
    if (!w.analyzable) return;
    if (!full_) {
      if (w.parse_ref >= 0) Sign(w);
      return;
    }
    if (pool != nullptr) w.group = std::make_unique<TaskGroup>(pool);
    FrameWork* wp = &w;
    const bool speculate = pool != nullptr;
    for (int c = 0; c < static_cast<int>(w.vision.size()); ++c) {
      if (w.quality[c] == CameraFrameQuality::kAbsent) continue;
      auto task = [this, wp, c, speculate] { RunCamera(*wp, c, speculate); };
      if (w.group != nullptr) {
        w.group->Submit(std::move(task));
      } else {
        task();
      }
    }
  }

  /// One camera slot's task: the stateless stage (detection + landmarks +
  /// gaze + appearance identity), the parse signature when this slot is
  /// the parse reference, and, when speculating, emotion predictions.
  /// Candidates are every frontal observation with radius >= 8 px — a
  /// superset of what the commit can select, since the tracker backfill
  /// there only changes identities, never geometry. So a speculating task
  /// leaves the commit nothing to read from the image and releases it
  /// here; the read-ahead then holds decoded images only until their
  /// camera's task is done, not until the commit.
  void RunCamera(FrameWork& w, int c, bool speculate) {
    {
      StageTimer timer(clock_, &w.vision_seconds[c]);
      w.vision[c] =
          engine_->AnalyzeCameraStateless(c, w.frames[c], w.quality[c]);
    }
    if (c == w.parse_ref) Sign(w);
    if (!speculate) return;
    if (options_.analyze_emotions && recognizer_ != nullptr) {
      StageTimer timer(clock_, &w.emotion_seconds[c]);
      auto& cache = w.emotion_cache[c];
      cache.assign(w.vision[c].obs.size(), std::nullopt);
      for (size_t oi = 0; oi < w.vision[c].obs.size(); ++oi) {
        const FaceDetection& det = w.vision[c].obs[oi].detection;
        if (!det.front_facing || det.radius_px < 8.0) continue;
        cache[oi] = PredictEmotion(*recognizer_, w.frames[c], det);
      }
    }
    w.frames[c] = ImageRgb();
  }

  void Sign(FrameWork& w) {
    StageTimer timer(clock_, &w.signature_seconds);
    w.signature = signature_maker_.Signature(w.frames[w.parse_ref]);
  }

  /// Retires the head frame: its geometry and emotions (from vision or
  /// from the simulator), then the tail both modes share — parse-signature
  /// publication, look-at, summary, repository writes.
  Status Commit(FrameWork& w) {
    std::vector<ParticipantGeometry> geometry;
    std::vector<EmotionObservation> emotions;
    if (full_) {
      DIEVENT_ASSIGN_OR_RETURN(bool analyze, AccountAcquisition(w));
      if (!analyze) return Status::OK();  // no analysis, no records
      DIEVENT_RETURN_NOT_OK(CommitVision(w, &geometry, &emotions));
    } else {
      TakeTruth(w, &geometry, &emotions);
    }

    if (options_.parse_video) {
      if (w.parse_ref > 0) ++report_.degradation.parse_reference_switches;
      report_.timings.parsing += w.signature_seconds;
      signatures_.push_back(std::move(w.signature));
    }
    LookAtMatrix lookat;
    {
      StageTimer timer(clock_, &report_.timings.eye_contact);
      lookat = ec_detector_.ComputeLookAt(geometry);
    }
    DIEVENT_RETURN_NOT_OK(report_.summary.Accumulate(lookat));
    if (full_) ScoreLookAt(w.t, lookat);
    DIEVENT_RETURN_NOT_OK(StoreFrame(w.f, w.t, lookat, emotions));
    ++report_.frames_processed;
    return Status::OK();
  }

  /// Ordered acquisition bookkeeping: skip/health tallies and the collapse
  /// check. Returns false when the frame is skipped. Uses the set's
  /// quarantine snapshot (not the source's live state) so the collapse
  /// message is identical whether the set came from the prefetch pump or
  /// a synchronous read.
  Result<bool> AccountAcquisition(FrameWork& w) {
    if (!w.analyzable) {
      ++report_.degradation.frames_skipped;
      health_timeline_.push_back({w.f, AcquisitionFrameHealth::kSkipped});
      if (options_.parse_video) signatures_.push_back(std::nullopt);
      ++consecutive_below_quorum_;
      if (consecutive_below_quorum_ >
          options_.acquisition.max_consecutive_below_quorum) {
        std::string quarantined;
        for (int c : w.set.quarantined_after) {
          quarantined += StrFormat(" %d", c);
        }
        return Status::FailedPrecondition(StrFormat(
            "acquisition collapsed at frame %d: %d consecutive frame sets "
            "below quorum (%d usable of %d cameras, quorum %d; "
            "quarantined:%s)",
            w.f, consecutive_below_quorum_, w.set.NumUsable(), num_cameras_,
            options_.acquisition.min_camera_quorum,
            quarantined.empty() ? " none" : quarantined.c_str()));
      }
      return false;
    }
    consecutive_below_quorum_ = 0;
    if (w.set.FullyHealthy()) {
      ++report_.degradation.frames_fully_healthy;
      health_timeline_.push_back({w.f, AcquisitionFrameHealth::kHealthy});
    } else {
      ++report_.degradation.frames_degraded;
      health_timeline_.push_back({w.f, AcquisitionFrameHealth::kDegraded});
    }
    return true;
  }

  /// kFullVision: tracking + fusion, the emotion pick, and the geometry
  /// accuracy bookkeeping.
  Status CommitVision(FrameWork& w,
                      std::vector<ParticipantGeometry>* geometry,
                      std::vector<EmotionObservation>* emotions) {
    FrameAnalysis analysis;
    {
      StageTimer timer(clock_, &report_.timings.detection);
      DIEVENT_ASSIGN_OR_RETURN(
          analysis, engine_->CommitFrame(w.f, std::move(w.vision), w.quality));
    }
    for (double s : w.vision_seconds) report_.timings.detection += s;
    for (double s : w.emotion_seconds) report_.timings.emotion += s;
    const std::vector<std::vector<FaceObservation>>& per_camera_obs =
        analysis.per_camera;
    const std::vector<FusedParticipant>& fused = analysis.fused;
    *geometry = ToGeometry(fused);
    for (int i = 0; i < n_; ++i) {
      if (fused[i].num_views == 0) (*geometry)[i].gaze_direction.reset();
    }

    if (options_.analyze_emotions && recognizer_ != nullptr) {
      StageTimer timer(clock_, &report_.timings.emotion);
      for (int i = 0; i < n_; ++i) {
        EmotionObservation eo;
        eo.participant = i;
        // Pick the largest frontal view of participant i.
        const FaceObservation* best = nullptr;
        int best_cam = -1;
        size_t best_idx = 0;
        for (int c = 0; c < num_cameras_; ++c) {
          const std::vector<FaceObservation>& cam_obs = per_camera_obs[c];
          for (size_t oi = 0; oi < cam_obs.size(); ++oi) {
            const FaceObservation& o = cam_obs[oi];
            if (o.identity == i && o.detection.front_facing &&
                (best == nullptr ||
                 o.detection.radius_px > best->detection.radius_px)) {
              best = &o;
              best_cam = c;
              best_idx = oi;
            }
          }
        }
        if (best != nullptr && best->detection.radius_px >= 8.0) {
          EmotionPrediction p;
          if (best_idx < w.emotion_cache[best_cam].size() &&
              w.emotion_cache[best_cam][best_idx].has_value()) {
            p = *w.emotion_cache[best_cam][best_idx];
          } else {
            // Only the inline path gets here: speculation predicted every
            // candidate and released the image.
            DIEVENT_CHECK(!w.frames[best_cam].empty())
                << "frame " << w.f << " camera " << best_cam
                << ": emotion candidate missed by speculation";
            p = PredictEmotion(*recognizer_, w.frames[best_cam],
                               best->detection);
          }
          eo.emotion = p.emotion;
          eo.confidence = p.confidence;
          if (eo.emotion == w.gt[i].emotion) ++accuracy_.emo_correct;
          ++accuracy_.emo_total;
        }
        emotions->push_back(eo);
      }
    }

    for (int i = 0; i < n_; ++i) {
      ++accuracy_.pf_total;
      if (fused[i].num_views > 0) {
        ++accuracy_.detect_have;
        accuracy_.pos_err_sum +=
            (fused[i].geometry.head_position - w.gt[i].head_position).Norm();
        ++accuracy_.pos_err_count;
      }
      if ((*geometry)[i].gaze_direction) {
        ++accuracy_.gaze_have;
        accuracy_.gaze_err_sum += RadToDeg(AngleBetween(
            *(*geometry)[i].gaze_direction, w.gt[i].gaze_direction));
        ++accuracy_.gaze_err_count;
      }
    }
    return Status::OK();
  }

  /// kGroundTruth: geometry and emotions straight from the simulator.
  void TakeTruth(const FrameWork& w,
                 std::vector<ParticipantGeometry>* geometry,
                 std::vector<EmotionObservation>* emotions) {
    {
      StageTimer timer(clock_, &report_.timings.fusion);
      geometry->resize(n_);
      for (int i = 0; i < n_; ++i) {
        (*geometry)[i].head_position = w.gt[i].head_position;
        (*geometry)[i].gaze_direction = w.gt[i].gaze_direction;
      }
    }
    if (!options_.analyze_emotions) return;
    for (int i = 0; i < n_; ++i) {
      EmotionObservation eo;
      eo.participant = i;
      eo.emotion = w.gt[i].emotion;
      eo.confidence = 1.0;
      emotions->push_back(eo);
    }
  }

  /// Look-at cell and edge agreement with the scripted ground truth.
  void ScoreLookAt(double t, const LookAtMatrix& lookat) {
    const std::vector<std::vector<bool>> gt_look = scene_.GroundTruthLookAt(t);
    for (int x = 0; x < n_; ++x) {
      for (int y = 0; y < n_; ++y) {
        if (x == y) continue;
        const bool est = lookat.At(x, y);
        const bool truth = gt_look[x][y];
        ++accuracy_.cell_total;
        if (est == truth) ++accuracy_.cell_agree;
        if (est && truth) ++accuracy_.edge_tp;
        if (est && !truth) ++accuracy_.edge_fp;
        if (!est && truth) ++accuracy_.edge_fn;
      }
    }
  }

  /// Repository + overall-emotion writes for one committed frame. With a
  /// durable store attached, every record is journaled before the frame
  /// is acknowledged, and the repository is checkpointed every
  /// `checkpoint_every_frames` committed frames.
  Status StoreFrame(int f, double t, const LookAtMatrix& lookat,
                    const std::vector<EmotionObservation>& emotions) {
    StageTimer timer(clock_, &report_.timings.storage);
    const LookAtRecord lar = LookAtRecord::FromMatrix(f, t, lookat);
    DIEVENT_RETURN_NOT_OK(repository_->AddLookAt(lar));
    if (store_ != nullptr) DIEVENT_RETURN_NOT_OK(store_->AddLookAt(lar));
    if (options_.analyze_emotions) {
      OverallEmotion oe = overall_.Update(f, t, emotions);
      for (const EmotionObservation& eo : emotions) {
        if (!eo.emotion) continue;
        EmotionRecord er;
        er.frame = f;
        er.timestamp_s = t;
        er.participant = eo.participant;
        er.emotion = *eo.emotion;
        er.confidence = eo.confidence;
        DIEVENT_RETURN_NOT_OK(repository_->AddEmotion(er));
        if (store_ != nullptr) DIEVENT_RETURN_NOT_OK(store_->AddEmotion(er));
      }
      OverallEmotionRecord orec;
      orec.frame = f;
      orec.timestamp_s = t;
      orec.overall_happiness = oe.overall_happiness;
      orec.mean_valence = oe.mean_valence;
      orec.observed = oe.observed;
      DIEVENT_RETURN_NOT_OK(repository_->AddOverallEmotion(orec));
      if (store_ != nullptr) {
        DIEVENT_RETURN_NOT_OK(store_->AddOverallEmotion(orec));
      }
    }
    if (store_ != nullptr && options_.checkpoint_every_frames > 0 &&
        ++frames_since_checkpoint_ >= options_.checkpoint_every_frames) {
      DIEVENT_RETURN_NOT_OK(store_->Checkpoint());
      frames_since_checkpoint_ = 0;
    }
    // The frame is acknowledged (and durable, when a store is attached):
    // tell the progress observer, on the committing thread, in frame order.
    if (options_.on_frame_committed) options_.on_frame_committed(f, t);
    return Status::OK();
  }

  const DiningScene& scene_;
  const PipelineOptions& options_;
  const bool full_;
  VirtualClock* const clock_;
  const std::vector<int> cameras_;
  const int num_cameras_;
  const int n_;
  MetadataRepository* const repository_;
  DurableEventStore* const store_;

  DiEventReport report_;
  int start_frame_ = 0;

  const EmotionRecognizer* recognizer_;
  std::unique_ptr<EmotionRecognizer> owned_recognizer_;
  // kFullVision reads every camera through the degradation-aware
  // synchronized reader, with fault injectors (when configured) between
  // it and the renderer; kGroundTruth decodes camera 0 for parsing only.
  std::unique_ptr<MultiCameraSource> multi_;
  std::vector<const FaultyVideoSource*> injectors_;
  std::unique_ptr<VideoSource> parse_source_;
  std::unique_ptr<FrameAnalyzer> engine_;  ///< kFullVision only
  EyeContactDetector ec_detector_;
  OverallEmotionEstimator overall_;
  ShotBoundaryDetector signature_maker_;

  // Parsing signature timeline: one slot per processed frame position,
  // empty when no camera could deliver that frame. Keeping empty slots
  // in place (instead of omitting them) preserves shot/scene timing; the
  // parser interpolates across the gaps.
  std::vector<std::optional<Histogram>> signatures_;
  // Per-frame acquisition health, folded into episode confidence later.
  std::vector<FrameHealthRecord> health_timeline_;
  AccuracyTally accuracy_;
  int consecutive_below_quorum_ = 0;
  int frames_since_checkpoint_ = 0;
};

}  // namespace

ReadAhead PlanReadAhead(const PipelineOptions& options) {
  ReadAhead plan;
  if (options.mode != PipelineMode::kFullVision) return plan;
  plan.workers = std::max(1, options.num_threads);
  if (plan.workers > 1) {
    plan.window = std::max({2, plan.workers, options.prefetch_depth});
  }
  if (options.prefetch_depth > 0) {
    plan.pump_depth = std::max(1, options.prefetch_depth - plan.window);
  }
  return plan;
}

DiEventPipeline::DiEventPipeline(const DiningScene* scene,
                                 PipelineOptions options)
    : scene_(scene), options_(std::move(options)) {}

Result<DiEventReport> DiEventPipeline::Run(MetadataRepository* repository) {
  if (repository == nullptr) {
    return Status::InvalidArgument("repository must not be null");
  }
  if (options_.frame_stride < 1) {
    return Status::InvalidArgument("frame_stride must be >= 1");
  }
  if (options_.prefetch_depth < 0) {
    return Status::InvalidArgument("prefetch_depth must be >= 0");
  }
  DIEVENT_RETURN_NOT_OK(ValidateBinCount(
      options_.parsing.shot.bins_per_channel, "parsing.shot.bins_per_channel"));
  // Resolve the camera subset (empty = the whole rig).
  std::vector<int> cameras = options_.camera_subset;
  if (cameras.empty()) {
    for (int c = 0; c < scene_->rig().NumCameras(); ++c) {
      cameras.push_back(c);
    }
  }
  for (int c : cameras) {
    if (c < 0 || c >= scene_->rig().NumCameras()) {
      return Status::InvalidArgument(
          StrFormat("camera %d not in the rig", c));
    }
  }
  if (options_.store != nullptr && options_.checkpoint_every_frames < 0) {
    return Status::InvalidArgument("checkpoint_every_frames must be >= 0");
  }
  if (!options_.camera_faults.empty() &&
      options_.camera_faults.size() != cameras.size()) {
    return Status::InvalidArgument(StrFormat(
        "camera_faults has %zu entries but %zu cameras are active",
        options_.camera_faults.size(), cameras.size()));
  }

  PipelineRun run(*scene_, options_, std::move(cameras), repository);
  DIEVENT_RETURN_NOT_OK(run.SetUp());
  DIEVENT_RETURN_NOT_OK(run.Loop());
  return run.Finish();
}

}  // namespace dievent
