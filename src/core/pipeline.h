/// \file pipeline.h
/// The DiEvent pipeline (paper Fig. 1): video acquisition -> video
/// composition analysis -> feature extraction -> multilayer analysis ->
/// metadata repository, as one configurable facade.
///
/// Two modes are supported:
///  - kFullVision runs the complete stack on rendered frames (detector,
///    recognizer, tracker, landmarks, gaze, fusion);
///  - kGroundTruth feeds the simulator's exact geometry to the analysis
///    layers, isolating the analysis math from vision error. The paper's
///    prototype numbers (Fig. 7–9) correspond to this path evaluated on
///    the scripted meeting; the full-vision path measures how close the
///    estimators get.

#ifndef DIEVENT_CORE_PIPELINE_H_
#define DIEVENT_CORE_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/eye_contact.h"
#include "analysis/fusion.h"
#include "analysis/lookat_matrix.h"
#include "analysis/overall_emotion.h"
#include "common/result.h"
#include "metadata/query.h"
#include "metadata/repository.h"
#include "ml/emotion_recognizer.h"
#include "ml/face_recognizer.h"
#include "ml/tracker.h"
#include "sim/scene.h"
#include "video/fault_injection.h"
#include "video/parser.h"
#include "video/synthetic_source.h"
#include "vision/face_analyzer.h"

namespace dievent {

class CancellationToken;
class DurableEventStore;

enum class PipelineMode { kFullVision, kGroundTruth };

struct PipelineOptions {
  PipelineMode mode = PipelineMode::kFullVision;

  // Acquisition / rendering.
  RenderOptions render;
  RenderScripts scripts;
  uint64_t noise_seed = 0;  ///< 0 = noise-free frames
  /// Rig cameras to use (indices); empty = all. Lets experiments ablate
  /// the paper's multi-camera design (Section I: "have a wide view using
  /// multiple cameras").
  std::vector<int> camera_subset;
  /// Per-active-camera fault schedules (parallel to the resolved camera
  /// list; empty = no injected faults). Applied to the full-vision
  /// acquisition path to exercise degradation handling deterministically.
  std::vector<FaultSpec> camera_faults;
  /// Degradation behavior of the synchronized multi-camera read: retries,
  /// hold-last-good fallback, quorum, circuit breaker.
  AcquisitionPolicy acquisition;

  // Feature extraction.
  FaceAnalyzerOptions vision;
  double recognizer_reject_distance = 0.35;
  TrackerOptions tracker;

  // Multilayer analysis.
  FusionOptions fusion;
  /// Fill fusion.seat_prior from the scene's seat positions, so
  /// observations the recognizer cannot identify still resolve to the
  /// participant whose seat they occupy.
  bool seat_prior_from_scene = false;
  EyeContactOptions eye_contact;
  OverallEmotionOptions overall_emotion;

  // Emotion recognition. Training is the expensive step; callers may
  // share one trained recognizer across pipelines via `recognizer`.
  bool analyze_emotions = true;
  EmotionRecognizerOptions emotion;
  const EmotionRecognizer* recognizer = nullptr;  ///< not owned; optional

  // Video composition analysis (runs on camera 0's stream).
  bool parse_video = true;
  VideoParserOptions parsing;

  /// Process every `frame_stride`-th frame (1 = all).
  int frame_stride = 1;

  /// Worker threads for the stateless vision stage (kFullVision only).
  /// Every run goes through one windowed executor: frames are acquired
  /// in order, one task per camera slot runs detection/landmarks/gaze/
  /// identity (the parse-reference camera's task also computes the parse
  /// signature), and an ordered commit stage applies tracking, fusion,
  /// accuracy, and repository writes in frame order. 1 = a window of one
  /// frame whose tasks run inline on the calling thread (no pool, no
  /// speculative emotion predictions) — the sequential reference.
  /// > 1 = a pool of this many workers and a window of
  /// max(2, num_threads, prefetch_depth) frames in flight, with emotion
  /// predictions speculated on the workers; a worker releases each camera
  /// image once its task is done. Results are bit-identical at every
  /// setting for equal seeds. kGroundTruth ignores this and
  /// prefetch_depth: it always runs the one-frame window inline.
  int num_threads = 1;

  /// Time source for every stage timer, acquisition deadline, watchdog,
  /// backoff delay, and injected stall. Null = the real steady clock.
  /// Must outlive the pipeline run; timing tests inject a SimClock so the
  /// whole acquisition state machine runs on simulated time.
  VirtualClock* clock = nullptr;

  /// Frame sets the run may read ahead of the commit stage (kFullVision
  /// only). 0 = synchronous reads. > 0 starts a prefetch pump inside
  /// MultiCameraSource that runs the identical admission/read/fold
  /// sequence ahead of the consumer, so decode + retries + deadline waits
  /// overlap analysis. The executor's window already holds frames read
  /// ahead, so the pump queues only max(1, prefetch_depth - window) sets
  /// (PlanReadAhead): one set with a pool, max(1, prefetch_depth - 1)
  /// inline. Independent of num_threads: the pump runs at any worker
  /// count.
  int prefetch_depth = 0;

  /// Durable persistence (optional; not owned, must outlive the run).
  /// When set, every record committed by the pipeline is appended to
  /// this store's write-ahead journal before the frame is acknowledged,
  /// and the run checkpoints the repository every
  /// `checkpoint_every_frames` committed frames (plus once at the end).
  /// If the store already holds frame records — a previous run died —
  /// a kGroundTruth run resumes after the last durable frame instead of
  /// starting over; kFullVision refuses to resume (tracker state is not
  /// checkpointed) but journals fresh runs normally.
  DurableEventStore* store = nullptr;
  /// Committed frames between checkpoints; 0 = only the final one.
  int checkpoint_every_frames = 0;

  /// Cooperative cancellation (optional; not owned, must outlive the
  /// run). Polled before each frame is retired, at every setting and in
  /// both modes; once Cancel() is observed the run stops WITHOUT
  /// committing another frame and returns Status::Cancelled("run
  /// cancelled before frame F"), F being the first uncommitted frame.
  /// Every already committed frame stays acknowledged (and durable when
  /// a store is attached), so a cancelled ground-truth run restarts
  /// from its checkpoint via the normal resume path. This is the fleet
  /// scheduler's watchdog handle.
  CancellationToken* cancel = nullptr;

  /// Invoked on the committing thread after each frame's records are
  /// acknowledged (journaled durably when a store is attached), with the
  /// frame index and its timestamp. Liveness/progress signal for the
  /// fleet watchdog and load controller; keep it cheap — it runs inside
  /// the ordered commit stage.
  std::function<void(int frame, double timestamp_s)> on_frame_committed;

  uint64_t seed = 42;  ///< master seed for training/augmentation
};

/// How far a run reads ahead of its ordered commit. DiEventPipeline::Run
/// sizes its executor from PlanReadAhead.
struct ReadAhead {
  int workers = 1;     ///< pool workers; 1 = the frame's tasks run inline
  int window = 1;      ///< frames in flight between acquisition and commit
  int pump_depth = 0;  ///< sets the prefetch pump queues; 0 = no pump
};

/// kFullVision: max(1, num_threads) workers; a window of one frame when
/// inline, else max(2, num_threads, prefetch_depth); and, when
/// prefetch_depth > 0, a pump of max(1, prefetch_depth - window) sets.
/// A pooled window already covers prefetch_depth, so a pooled run's pump
/// queues one set and an inline run's queues max(1, prefetch_depth - 1).
/// kGroundTruth has no vision tasks worth a pool or a read-ahead: one
/// inline frame and no pump, so fleet tenants never spawn threads.
ReadAhead PlanReadAhead(const PipelineOptions& options);

/// Time spent in each pipeline stage, seconds, read from the run's
/// clock. Work done on pool workers is summed across threads.
struct StageTimings {
  /// Frame reads: the synchronized multi-camera read in kFullVision, the
  /// camera-0 decode for parsing in kGroundTruth.
  double acquisition = 0;
  /// Per-camera vision work: detect + landmarks + gaze + identity, plus
  /// the ordered tracking + fusion commit (kFullVision).
  double detection = 0;
  double fusion = 0;       ///< truth-geometry hand-off (kGroundTruth)
  double eye_contact = 0;
  double emotion = 0;
  /// Parse-signature compute for every frame in every mode, plus the
  /// final shot/scene parse.
  double parsing = 0;
  double storage = 0;
  double training = 0;     ///< one-time emotion-recognizer training

  double Total() const {
    return acquisition + detection + fusion + eye_contact + emotion +
           parsing + storage;
  }
};

/// Vision-vs-ground-truth quality measures (kFullVision only).
struct PipelineAccuracy {
  /// Fraction of off-diagonal look-at cells agreeing with ground truth.
  double lookat_cell_accuracy = 0;
  /// Precision/recall of "looks-at" edges vs ground truth.
  double edge_precision = 0;
  double edge_recall = 0;
  /// Mean head-position error of fused participants, metres.
  double mean_position_error_m = 0;
  /// Mean angular gaze error over frames where both GT and estimate have
  /// gaze, degrees.
  double mean_gaze_error_deg = 0;
  /// Fraction of participant-frames with a usable gaze estimate.
  double gaze_coverage = 0;
  /// Fraction of participant-frames detected by at least one camera.
  double detection_coverage = 0;
  /// Fraction of emotion classifications matching the scripted emotion.
  double emotion_accuracy = 0;
};

/// How the acquisition path degraded over a run (kFullVision mode).
/// All-zero for a fault-free run over healthy sources.
struct DegradationStats {
  int frames_fully_healthy = 0;  ///< every camera delivered a fresh decode
  int frames_degraded = 0;  ///< analyzed with held/missing/quarantined slots
  int frames_skipped = 0;   ///< below quorum; no analysis, no records
  long long retries_spent = 0;  ///< extra read attempts across all cameras
  long long frames_held = 0;    ///< slots filled from a last good frame
  /// Per active camera (pipeline camera-subset order).
  std::vector<long long> camera_drops;        ///< failed reads after retries
  std::vector<long long> camera_corruptions;  ///< injected corrupted frames
  std::vector<int> cameras_quarantined;  ///< breaker open at end of run
  int quarantine_events = 0;
  int readmissions = 0;

  // Acquisition-supervisor mechanism counters (summed over cameras).
  long long deadline_misses = 0;  ///< reads abandoned at the read deadline
  int watchdog_interrupts = 0;    ///< stalled reads cancelled mid-flight
  int reader_restarts = 0;        ///< wedged reader threads replaced
  int max_queue_depth = 0;        ///< response-queue high-water mark

  // Master-clock re-synchronization (timestamp resampling).
  long long resync_corrections = 0;    ///< timestamps snapped to a tick
  long long resync_misalignments = 0;  ///< off by more than half a period
  double max_timestamp_jitter_s = 0;   ///< worst deviation before resync

  // Fault-aware video parsing (camera-0 signature timeline repair).
  int parse_signatures_missing = 0;       ///< slots no camera could fill
  int parse_signatures_interpolated = 0;  ///< gaps filled before parsing
  int parse_reference_switches = 0;  ///< frames signed by a fallback camera

  // Durability (populated when PipelineOptions::store is attached).
  /// Journal frames acknowledged durable (DurableStoreStats::
  /// records_appended): one per store mutation, one per kRecBatch chunk.
  long long journal_records = 0;
  long long journal_bytes = 0;    ///< framed journal bytes written
  int checkpoints_committed = 0;  ///< snapshots folded during the run
  int resumed_from_frame = -1;    ///< last durable frame resumed after (-1 = fresh)
  int resume_reused_frames = 0;   ///< frame records recovered, not recomputed

  bool Degraded() const {
    return frames_degraded > 0 || frames_skipped > 0;
  }
  std::string ToString() const;
};

/// Everything the pipeline produces for one event.
struct DiEventReport {
  int frames_processed = 0;
  std::vector<std::string> participant_names;
  LookAtSummary summary;
  int dominant_participant = -1;
  std::vector<EyeContactEpisode> eye_contact_episodes;
  std::vector<OverallEmotion> emotion_timeline;
  double mean_overall_happiness = 0;
  double mean_valence = 0;
  VideoStructure structure;  ///< camera-0 parse (when enabled)
  StageTimings timings;
  PipelineAccuracy accuracy;  ///< meaningful in kFullVision mode
  DegradationStats degradation;  ///< acquisition health (kFullVision mode)

  std::string Summary() const;
};

/// The framework facade.
class DiEventPipeline {
 public:
  /// The scene outlives the pipeline (not owned).
  DiEventPipeline(const DiningScene* scene, PipelineOptions options);

  /// Runs the full pipeline and fills `repository` (cleared first). The
  /// report aggregates what Section III's prototype reports, plus
  /// accuracy and timing.
  Result<DiEventReport> Run(MetadataRepository* repository);

  const PipelineOptions& options() const { return options_; }

 private:
  const DiningScene* scene_;
  PipelineOptions options_;
};

}  // namespace dievent

#endif  // DIEVENT_CORE_PIPELINE_H_
