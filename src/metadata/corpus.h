/// \file corpus.h
/// The sharded event corpus: cross-event storage and retrieval over
/// per-event DurableEventStore directories (the fleet's natural shard
/// unit). This is the layer that answers the paper's "querying scenes
/// w.r.t. a particular context" across MANY dining events instead of
/// one.
///
/// On-disk layout of a corpus directory:
///
///   MANIFEST              shard index (atomic replace, CRC-framed)
///   <shard-dir>/          one DurableEventStore per event
///     snapshot.dmr
///     journal-NNNNNN.wal
///
/// The MANIFEST lists only SEALED shards: a shard becomes visible to
/// queries after SealShard (checkpoint + close + index) or
/// RegisterShard (fleet completion). Each entry carries the event's
/// context plus time/frame/participant bounds, so scope predicates and
/// frame-level pruning run against the manifest alone — a query only
/// opens the shards it cannot prune. Unsealed directories (a writer
/// that crashed before sealing) are invisible to queries and
/// recoverable via ResumeShard; a crash between writing shard data and
/// the manifest rename leaves the corpus exactly as if the seal never
/// happened.
///
/// Query fan-out: per-shard evaluation runs over the shared ThreadPool
/// (serially when none is given), merging per-event FrameMatch /
/// SegmentMatch streams into a deterministic, event-id-ordered result
/// that is bit-identical to evaluating every shard serially — pruning
/// and parallelism are pure optimizations.
///
/// Locking (LockRank::kCorpus): mu_ guards the manifest, the open
/// writer table, and the repository cache. It is never held across
/// store I/O, pool submits, or TaskGroup::Wait.

#ifndef DIEVENT_METADATA_CORPUS_H_
#define DIEVENT_METADATA_CORPUS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "metadata/durable_store.h"
#include "metadata/query.h"
#include "metadata/repository.h"

namespace dievent {

/// One sealed shard as recorded in the MANIFEST.
struct ShardIndexEntry {
  std::string dir;        ///< shard directory, relative to the corpus root
  std::string event_id;   ///< context.event_id (falls back to `dir`)
  EventContext context;   ///< scope predicates evaluate against this
  uint64_t records = 0;   ///< total records at seal time
  /// Inclusive look-at timestamp bounds; unset when the shard has no
  /// look-at records (then any frame query trivially matches nothing).
  std::optional<std::pair<double, double>> time_bounds;
  /// Inclusive frame bounds over all frame-stamped records.
  std::optional<std::pair<int, int>> frame_bounds;
  /// Largest look-at matrix size any record has — the exact bound for
  /// participant-reference pruning (context.num_participants is
  /// advisory and may disagree with the records).
  int max_lookat_n = 0;
};

struct CorpusOptions {
  /// Filesystem for the manifest and every shard; null = default.
  FileSystem* fs = nullptr;
  /// Pool for per-shard query fan-out; null = evaluate serially.
  ThreadPool* pool = nullptr;
  /// Per-shard store knobs (fsync policy, rotation). The corpus
  /// filesystem overrides `store.fs`.
  DurableStoreOptions store;
};

/// Which result streams a corpus query materializes.
struct CorpusQueryOptions {
  bool scenes = false;         ///< also roll matches up into scenes
  double min_coverage = 0.5;   ///< scene coverage threshold
};

/// Per-event slice of a corpus query result.
struct EventMatches {
  std::string event_id;
  std::string shard_dir;
  std::vector<FrameMatch> frames;
  std::vector<SegmentMatch> scenes;  ///< filled when options.scenes
};

struct CorpusQueryResult {
  /// One entry per event in scope, ordered by (event_id, shard_dir) —
  /// deterministic regardless of evaluation order. Events whose shard
  /// was pruned appear with empty match lists.
  std::vector<EventMatches> events;
  uint64_t shards_in_scope = 0;
  uint64_t shards_pruned = 0;   ///< answered from the manifest alone
  uint64_t shards_opened = 0;   ///< shards actually evaluated
  uint64_t total_frames = 0;    ///< sum of frames across events
};

class EventCorpus {
 public:
  /// Opens (creating if needed) the corpus in `dir` and loads the
  /// manifest. A damaged manifest is Corruption, never a partial load;
  /// a `dir` that exists but is not a directory is IoError. Trailing
  /// slashes are dropped from `dir` (see dir()).
  static Result<std::unique_ptr<EventCorpus>> Open(
      const std::string& dir, const CorpusOptions& options = {});

  ~EventCorpus();

  EventCorpus(const EventCorpus&) = delete;
  EventCorpus& operator=(const EventCorpus&) = delete;

  // --- ingest ---------------------------------------------------------
  /// Creates a new shard directory for `event_id` and opens its store.
  /// The corpus owns the store; the pointer stays valid until
  /// SealShard / destruction. AlreadyExists if the event has an open
  /// writer or a sealed shard.
  Result<DurableEventStore*> BeginShard(const std::string& event_id)
      EXCLUDES(mu_);

  /// Reopens the unsealed shard for `event_id` (e.g. after a crash),
  /// recovering its store state. NotFound if no such directory.
  Result<DurableEventStore*> ResumeShard(const std::string& event_id)
      EXCLUDES(mu_);

  /// Checkpoints and closes the shard's store, then publishes it to
  /// queries by rewriting the manifest atomically. After OK the shard
  /// is durable and visible; on error the writer is dropped but the
  /// shard stays unsealed (ResumeShard recovers it).
  Status SealShard(const std::string& event_id) EXCLUDES(mu_);

  /// Publishes an externally written DurableEventStore directory (the
  /// fleet scheduler's completion hook). `store_dir` may be absolute or
  /// relative to the corpus root; it is indexed read-only — the owner
  /// may keep the directory open. Re-registering an already-registered
  /// directory refreshes its index entry. NotFound if the directory does
  /// not exist.
  Status RegisterShard(const std::string& store_dir) EXCLUDES(mu_);

  // --- query ----------------------------------------------------------
  /// Evaluates a cross-event query: scope-filters shards against the
  /// manifest, prunes shards whose bounds cannot match the frame
  /// predicates, fans the rest over the pool, and merges the streams.
  Result<CorpusQueryResult> Query(const CorpusQuerySpec& spec,
                                  const CorpusQueryOptions& options = {})
      const EXCLUDES(mu_);

  /// Sealed shards, manifest order.
  std::vector<ShardIndexEntry> shards() const EXCLUDES(mu_);
  /// The root as given to Open, without trailing slashes.
  const std::string& dir() const { return dir_; }

  /// True when the manifest alone proves the shard cannot contribute a
  /// frame match (no look-at records, disjoint time range, or a
  /// referenced participant the event does not have). Exposed for the
  /// pruning regression tests.
  static bool CanPruneShard(const ShardIndexEntry& entry,
                            const QuerySpec& frame);
  /// True when the entry's context satisfies the scope predicates.
  static bool ShardInScope(const ShardIndexEntry& entry,
                           const CorpusScopeSpec& scope);

 private:
  EventCorpus(std::string dir, CorpusOptions options)
      : dir_(std::move(dir)), options_(options) {}

  FileSystem* fs() const;
  Status LoadManifest();
  Status WriteManifestLocked() REQUIRES(mu_);
  /// Builds the index entry a repository seals into the manifest.
  static ShardIndexEntry IndexRepository(const MetadataRepository& repo,
                                         const std::string& shard_dir);
  /// Cache lookup; loads read-only (and prewarms the time index)
  /// outside the lock on miss.
  Result<std::shared_ptr<const MetadataRepository>> ShardRepository(
      const ShardIndexEntry& entry) const EXCLUDES(mu_);

  const std::string dir_;
  const CorpusOptions options_;

  mutable Mutex mu_{LockRank::kCorpus};
  std::vector<ShardIndexEntry> manifest_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<DurableEventStore>> writers_
      GUARDED_BY(mu_);
  /// Read-only repositories keyed by shard dir, shared with in-flight
  /// query tasks. Entries are immutable once published (time index
  /// prewarmed before insert).
  mutable std::map<std::string, std::shared_ptr<const MetadataRepository>>
      cache_ GUARDED_BY(mu_);
};

/// Shard directory name for an event id ("shard-" + sanitized id).
std::string ShardDirName(const std::string& event_id);

/// Manifest file name within a corpus directory.
extern const char kManifestFileName[];

}  // namespace dievent

#endif  // DIEVENT_METADATA_CORPUS_H_
