#include "metadata/corpus.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/strings.h"
#include "io/crc32.h"
#include "io/file.h"
#include "metadata/record_codec.h"

namespace dievent {

const char kManifestFileName[] = "MANIFEST";

namespace {

constexpr uint32_t kManifestMagic = 0x44434D31;  // "DCM1"
constexpr uint32_t kManifestVersion = 1;

void EncodeShardEntry(const ShardIndexEntry& e, std::string* out) {
  BinWriter w(out);
  w.Str(e.dir);
  EncodeContext(e.context, out);
  w.U64(e.records);
  w.U8(e.time_bounds ? 1 : 0);
  if (e.time_bounds) {
    w.F64(e.time_bounds->first);
    w.F64(e.time_bounds->second);
  }
  w.U8(e.frame_bounds ? 1 : 0);
  if (e.frame_bounds) {
    w.I32(e.frame_bounds->first);
    w.I32(e.frame_bounds->second);
  }
  w.I32(e.max_lookat_n);
}

Status DecodeShardEntry(BinReader* r, ShardIndexEntry* e) {
  e->dir = r->Str();
  DIEVENT_RETURN_NOT_OK(DecodeContext(r, &e->context));
  e->records = r->U64();
  if (r->U8() != 0) {
    double lo = r->F64(), hi = r->F64();
    e->time_bounds = {lo, hi};
  }
  if (r->U8() != 0) {
    int lo = r->I32(), hi = r->I32();
    e->frame_bounds = {lo, hi};
  }
  e->max_lookat_n = r->I32();
  if (!r->ok() || e->dir.empty()) {
    return Status::Corruption("truncated manifest entry");
  }
  e->event_id =
      e->context.event_id.empty() ? e->dir : e->context.event_id;
  return Status::OK();
}

/// Runs the frame query (and optional scene roll-up) for one shard.
void EvaluateShard(const MetadataRepository* repo,
                   const CorpusQuerySpec& spec,
                   const CorpusQueryOptions& options,
                   std::vector<FrameMatch>* frames,
                   std::vector<SegmentMatch>* scenes) {
  Query query(repo, spec.frame);
  *frames = query.Execute();
  if (options.scenes) *scenes = query.ExecuteScenes(options.min_coverage);
}

}  // namespace

std::string ShardDirName(const std::string& event_id) {
  std::string out = "shard-";
  for (char c : event_id) {
    const bool keep = std::isalnum(static_cast<unsigned char>(c)) ||
                      c == '-' || c == '_' || c == '.';
    out.push_back(keep ? c : '_');
  }
  if (out.size() == 6) out.append("event");
  return out;
}

FileSystem* EventCorpus::fs() const {
  return options_.fs != nullptr ? options_.fs : FileSystem::Default();
}

Result<std::unique_ptr<EventCorpus>> EventCorpus::Open(
    const std::string& dir, const CorpusOptions& options) {
  // One spelling of the root: RegisterShard strips "<root>/" from store
  // paths, which a trailing slash ("corpus/") would never match.
  std::string root = dir;
  while (root.size() > 1 && root.back() == '/') root.pop_back();
  std::unique_ptr<EventCorpus> corpus(new EventCorpus(root, options));
  DIEVENT_RETURN_NOT_OK(corpus->fs()->CreateDir(root));
  DIEVENT_RETURN_NOT_OK(corpus->LoadManifest());
  return corpus;
}

EventCorpus::~EventCorpus() {
  // Take the writers out under the lock, close outside it: mu_ is never
  // held across store I/O, destruction included.
  std::map<std::string, std::unique_ptr<DurableEventStore>> writers;
  {
    MutexLock lock(mu_);
    writers = std::move(writers_);
  }
  for (auto& [id, store] : writers) (void)store->Close();
}

Status EventCorpus::LoadManifest() {
  FileSystem* f = fs();
  const std::string path = JoinPath(dir_, kManifestFileName);
  if (!f->Exists(path)) return Status::OK();
  DIEVENT_ASSIGN_OR_RETURN(std::string data, f->ReadFile(path));

  BinReader r(data);
  if (r.U32() != kManifestMagic || !r.ok()) {
    return Status::Corruption("bad manifest magic: " + path);
  }
  const uint32_t len = r.U32();
  const uint32_t masked_crc = r.U32();
  std::string_view payload = r.Span(len);
  if (!r.ok() || !r.AtEnd()) {
    return Status::Corruption("truncated manifest: " + path);
  }
  if (Crc32Unmask(masked_crc) != Crc32(payload.data(), payload.size())) {
    return Status::Corruption("manifest checksum mismatch: " + path);
  }

  BinReader body(payload);
  if (body.U32() != kManifestVersion) {
    return Status::Corruption("unsupported manifest version: " + path);
  }
  const uint32_t count = body.U32();
  std::vector<ShardIndexEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ShardIndexEntry e;
    Status s = DecodeShardEntry(&body, &e);
    if (!s.ok()) return s.WithContext("manifest " + path);
    entries.push_back(std::move(e));
  }
  if (!body.ok() || !body.AtEnd()) {
    return Status::Corruption("manifest has trailing bytes: " + path);
  }

  MutexLock lock(mu_);
  manifest_ = std::move(entries);
  return Status::OK();
}

Status EventCorpus::WriteManifestLocked() {
  std::string payload;
  {
    BinWriter w(&payload);
    w.U32(kManifestVersion);
    w.U32(static_cast<uint32_t>(manifest_.size()));
  }
  for (const ShardIndexEntry& e : manifest_) {
    EncodeShardEntry(e, &payload);
  }
  std::string data;
  BinWriter w(&data);
  w.U32(kManifestMagic);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32Mask(Crc32(payload.data(), payload.size())));
  data.append(payload);
  return AtomicWriteFile(fs(), JoinPath(dir_, kManifestFileName), data);
}

ShardIndexEntry EventCorpus::IndexRepository(const MetadataRepository& repo,
                                             const std::string& shard_dir) {
  ShardIndexEntry e;
  e.dir = shard_dir;
  e.context = repo.context();
  e.event_id =
      e.context.event_id.empty() ? shard_dir : e.context.event_id;
  e.records = repo.TotalRecords();
  e.time_bounds = repo.LookAtTimeBounds();
  e.frame_bounds = repo.FrameBounds();
  for (const LookAtRecord& r : repo.lookat_records()) {
    e.max_lookat_n = std::max(e.max_lookat_n, r.n);
  }
  return e;
}

Result<DurableEventStore*> EventCorpus::BeginShard(
    const std::string& event_id) {
  const std::string shard_dir = ShardDirName(event_id);
  {
    MutexLock lock(mu_);
    if (writers_.count(event_id) != 0) {
      return Status::AlreadyExists("shard writer already open: " +
                                   event_id);
    }
    for (const ShardIndexEntry& e : manifest_) {
      if (e.dir == shard_dir) {
        return Status::AlreadyExists("event already sealed: " + event_id);
      }
    }
  }
  const std::string path = JoinPath(dir_, shard_dir);
  if (fs()->Exists(path)) {
    return Status::AlreadyExists(
        "unsealed shard directory exists (ResumeShard): " + shard_dir);
  }

  DurableStoreOptions store_options = options_.store;
  store_options.fs = fs();
  DIEVENT_ASSIGN_OR_RETURN(auto store,
                           DurableEventStore::Open(path, store_options));

  MutexLock lock(mu_);
  auto [it, inserted] = writers_.emplace(event_id, std::move(store));
  if (!inserted) {
    return Status::AlreadyExists("shard writer already open: " + event_id);
  }
  return it->second.get();
}

Result<DurableEventStore*> EventCorpus::ResumeShard(
    const std::string& event_id) {
  const std::string shard_dir = ShardDirName(event_id);
  {
    MutexLock lock(mu_);
    auto it = writers_.find(event_id);
    if (it != writers_.end()) return it->second.get();
    for (const ShardIndexEntry& e : manifest_) {
      if (e.dir == shard_dir) {
        return Status::FailedPrecondition(
            "shard is sealed; it is read-only: " + event_id);
      }
    }
  }
  const std::string path = JoinPath(dir_, shard_dir);
  if (!fs()->Exists(path)) {
    return Status::NotFound("no shard directory for event: " + event_id);
  }

  DurableStoreOptions store_options = options_.store;
  store_options.fs = fs();
  DIEVENT_ASSIGN_OR_RETURN(auto store,
                           DurableEventStore::Open(path, store_options));

  MutexLock lock(mu_);
  auto [it, inserted] = writers_.emplace(event_id, std::move(store));
  if (!inserted) {
    return Status::AlreadyExists("shard writer already open: " + event_id);
  }
  return it->second.get();
}

Status EventCorpus::SealShard(const std::string& event_id) {
  std::unique_ptr<DurableEventStore> store;
  {
    MutexLock lock(mu_);
    auto it = writers_.find(event_id);
    if (it == writers_.end()) {
      return Status::NotFound("no open shard writer: " + event_id);
    }
    store = std::move(it->second);
    writers_.erase(it);
  }

  // Fold the journal into a snapshot and close — a sealed shard is
  // snapshot-only, so readers never race the writer's truncations.
  DIEVENT_RETURN_NOT_OK(
      store->Checkpoint().WithContext("sealing " + event_id));
  DIEVENT_RETURN_NOT_OK(store->Close().WithContext("sealing " + event_id));

  const std::string shard_dir = ShardDirName(event_id);
  ShardIndexEntry entry = IndexRepository(store->repository(), shard_dir);
  auto repo = std::make_shared<MetadataRepository>(store->repository());
  // Prewarm the lazy time index before the repository is shared with
  // concurrent query tasks (it is immutable afterwards).
  (void)repo->LookAtTimeBounds();

  MutexLock lock(mu_);
  manifest_.push_back(std::move(entry));
  Status s = WriteManifestLocked();
  if (!s.ok()) {
    // The shard directory is intact and unsealed; ResumeShard recovers.
    manifest_.pop_back();
    return s.WithContext("publishing " + event_id);
  }
  cache_[shard_dir] = std::move(repo);
  return Status::OK();
}

Status EventCorpus::RegisterShard(const std::string& store_dir) {
  // Prefer a root-relative entry so the corpus directory is relocatable.
  std::string rel = store_dir;
  const std::string prefix = dir_ + "/";
  if (rel.compare(0, prefix.size(), prefix) == 0) {
    rel = rel.substr(prefix.size());
  }
  const std::string path =
      (!rel.empty() && rel[0] == '/') ? rel : JoinPath(dir_, rel);
  DIEVENT_ASSIGN_OR_RETURN(MetadataRepository loaded,
                           DurableEventStore::LoadState(fs(), path));
  // LoadState reads a missing directory as an empty store; publishing
  // that would hide a mistyped path behind a shard with no records.
  if (loaded.TotalRecords() == 0 && !fs()->Exists(path)) {
    return Status::NotFound("no store directory " + path);
  }
  ShardIndexEntry entry = IndexRepository(loaded, rel);
  auto repo = std::make_shared<MetadataRepository>(std::move(loaded));
  (void)repo->LookAtTimeBounds();

  MutexLock lock(mu_);
  bool replaced = false;
  for (ShardIndexEntry& e : manifest_) {
    if (e.dir == rel) {
      std::swap(e, entry);
      replaced = true;
      break;
    }
  }
  if (!replaced) manifest_.push_back(std::move(entry));
  Status s = WriteManifestLocked();
  if (!s.ok()) {
    if (replaced) {
      for (ShardIndexEntry& e : manifest_) {
        if (e.dir == rel) std::swap(e, entry);
      }
    } else {
      manifest_.pop_back();
    }
    return s.WithContext("registering " + rel);
  }
  cache_[rel] = std::move(repo);
  return Status::OK();
}

bool EventCorpus::ShardInScope(const ShardIndexEntry& entry,
                               const CorpusScopeSpec& scope) {
  if (scope.event_id && entry.event_id != *scope.event_id) return false;
  if (scope.venue && entry.context.location != *scope.venue) return false;
  if (scope.occasion && entry.context.occasion != *scope.occasion) {
    return false;
  }
  if (scope.date && entry.context.date != *scope.date) return false;
  if (scope.min_participants &&
      entry.context.num_participants < *scope.min_participants) {
    return false;
  }
  return true;
}

bool EventCorpus::CanPruneShard(const ShardIndexEntry& entry,
                                const QuerySpec& frame) {
  // No look-at records: no frame can ever match.
  if (!entry.time_bounds) return true;
  if (frame.time_range &&
      (frame.time_range->second <= entry.time_bounds->first ||
       frame.time_range->first > entry.time_bounds->second)) {
    return true;
  }
  // Look-matrix predicates fail on every record smaller than the
  // largest referenced participant — exact, per MaxParticipantRef().
  const int ref = frame.MaxParticipantRef();
  if (ref >= 0 && ref >= entry.max_lookat_n) return true;
  return false;
}

Result<std::shared_ptr<const MetadataRepository>>
EventCorpus::ShardRepository(const ShardIndexEntry& entry) const {
  {
    MutexLock lock(mu_);
    auto it = cache_.find(entry.dir);
    if (it != cache_.end()) return it->second;
  }
  const std::string path = (!entry.dir.empty() && entry.dir[0] == '/')
                               ? entry.dir
                               : JoinPath(dir_, entry.dir);
  auto loaded = DurableEventStore::LoadState(fs(), path);
  if (!loaded.ok()) {
    return loaded.status().WithContext("opening shard " + entry.dir);
  }
  auto repo =
      std::make_shared<MetadataRepository>(std::move(loaded).value());
  (void)repo->LookAtTimeBounds();

  MutexLock lock(mu_);
  auto [it, inserted] = cache_.emplace(entry.dir, std::move(repo));
  return it->second;
}

Result<CorpusQueryResult> EventCorpus::Query(
    const CorpusQuerySpec& spec, const CorpusQueryOptions& options) const {
  std::vector<ShardIndexEntry> entries;
  {
    MutexLock lock(mu_);
    entries = manifest_;
  }

  // A zero scene-coverage threshold matches every scene even with no
  // matching frames, so a pruned (unopened) shard would wrongly return
  // nothing — pruning is only an optimization when it cannot change
  // the result.
  const bool allow_prune = !(options.scenes && options.min_coverage <= 0.0);

  struct Slot {
    const ShardIndexEntry* entry = nullptr;
    bool pruned = false;
    Status status = Status::OK();
    std::vector<FrameMatch> frames;
    std::vector<SegmentMatch> scenes;
  };
  std::vector<Slot> slots;
  for (const ShardIndexEntry& e : entries) {
    if (!ShardInScope(e, spec.scope)) continue;
    Slot slot;
    slot.entry = &e;
    slot.pruned = allow_prune && CanPruneShard(e, spec.frame);
    slots.push_back(std::move(slot));
  }

  auto evaluate = [this, &spec, &options](Slot* slot) {
    auto repo = ShardRepository(*slot->entry);
    if (!repo.ok()) {
      slot->status = repo.status();
      return;
    }
    EvaluateShard(repo.value().get(), spec, options, &slot->frames,
                  &slot->scenes);
  };

  if (options_.pool != nullptr) {
    TaskGroup group(options_.pool);
    for (Slot& slot : slots) {
      if (slot.pruned) continue;
      group.Submit([&evaluate, &slot] { evaluate(&slot); });
    }
    group.Wait();
  } else {
    for (Slot& slot : slots) {
      if (!slot.pruned) evaluate(&slot);
    }
  }

  CorpusQueryResult result;
  result.shards_in_scope = slots.size();
  for (Slot& slot : slots) {
    if (slot.pruned) {
      ++result.shards_pruned;
    } else {
      DIEVENT_RETURN_NOT_OK(slot.status);
      ++result.shards_opened;
    }
    EventMatches em;
    em.event_id = slot.entry->event_id;
    em.shard_dir = slot.entry->dir;
    em.frames = std::move(slot.frames);
    em.scenes = std::move(slot.scenes);
    result.total_frames += em.frames.size();
    result.events.push_back(std::move(em));
  }
  std::sort(result.events.begin(), result.events.end(),
            [](const EventMatches& a, const EventMatches& b) {
              return a.event_id != b.event_id ? a.event_id < b.event_id
                                              : a.shard_dir < b.shard_dir;
            });
  return result;
}

std::vector<ShardIndexEntry> EventCorpus::shards() const {
  MutexLock lock(mu_);
  return manifest_;
}

}  // namespace dievent
