#include "metadata/fsck.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "io/file.h"
#include "metadata/durable_store.h"
#include "metadata/repository.h"

namespace dievent {

std::string FsckReport::ToString() const {
  std::string out = StrFormat(
      "fsck: snapshot=%s seq=%llu, journal: %llu segment(s), %llu "
      "record(s)\n",
      !snapshot_present ? "absent" : (snapshot_ok ? "ok" : "CORRUPT"),
      static_cast<unsigned long long>(snapshot_sequence),
      static_cast<unsigned long long>(journal_segments),
      static_cast<unsigned long long>(journal_records));
  if (problems.empty()) {
    out += "clean\n";
  } else {
    for (const auto& p : problems) out += "problem: " + p + "\n";
  }
  for (const auto& a : repairs) out += "repaired: " + a + "\n";
  if (!repairs.empty() || verified) {
    out += verified ? "verification: store reopens cleanly\n"
                    : "verification: NOT verified\n";
  }
  return out;
}

Result<FsckReport> RunFsck(FileSystem* fs, const std::string& dir,
                           const FsckOptions& options) {
  if (!fs->Exists(dir)) {
    return Status::NotFound("no such store directory: " + dir);
  }
  FsckReport report;

  // --- stray checkpoint temp --------------------------------------------
  const std::string snapshot_path = JoinPath(dir, kSnapshotFileName);
  const std::string tmp_path = snapshot_path + ".tmp";
  if (fs->Exists(tmp_path)) {
    report.problems.push_back(
        "stray checkpoint temp file (checkpoint died before rename)");
    if (options.repair) {
      DIEVENT_RETURN_NOT_OK(fs->Remove(tmp_path));
      report.repairs.push_back("removed " + tmp_path);
    }
  }

  // --- snapshot ----------------------------------------------------------
  // The journal replays on top of the snapshot's state, exactly as
  // recovery does, so a record is checked against everything before it.
  MetadataRepository state;
  report.snapshot_present = fs->Exists(snapshot_path);
  if (report.snapshot_present) {
    MetadataRepository::SnapshotInfo info;
    auto loaded = MetadataRepository::Load(fs, snapshot_path, &info);
    if (loaded.ok()) {
      report.snapshot_ok = true;
      report.snapshot_sequence = info.last_sequence;
      state = std::move(loaded).value();
    } else {
      report.problems.push_back("snapshot: " + loaded.status().message());
      if (options.repair) {
        DIEVENT_RETURN_NOT_OK(
            fs->Rename(snapshot_path, snapshot_path + ".corrupt"));
        report.repairs.push_back(
            "quarantined corrupt snapshot (checkpointed state before the "
            "journal is lost)");
      }
    }
  }

  // --- journal segments --------------------------------------------------
  DIEVENT_ASSIGN_OR_RETURN(std::vector<std::string> names,
                           fs->ListDir(dir));
  std::vector<std::pair<uint32_t, std::string>> segments;
  for (const std::string& name : names) {
    long long index = ParseJournalSegmentName(name);
    if (index >= 0) {
      segments.emplace_back(static_cast<uint32_t>(index), name);
    }
  }
  std::sort(segments.begin(), segments.end());

  // Every payload replays through the store's own replay core into
  // `state`, so the scan stops exactly where recovery would refuse and
  // reports that record's byte offset. Without a usable snapshot the
  // journal's first sequence is adopted (expected 0) rather than
  // required to be 1, so a lost snapshot costs only its own state.
  uint64_t expected = report.snapshot_ok ? report.snapshot_sequence + 1 : 0;
  uint64_t first_seq = 0;
  auto replay = [&](std::string_view payload) -> Status {
    const bool adopting = expected == 0;
    DIEVENT_RETURN_NOT_OK(ApplyJournalPayload(
        payload, report.snapshot_sequence, &expected, &state, nullptr,
        nullptr));
    if (adopting) first_seq = expected - 1;
    return Status::OK();
  };

  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [index, name] = segments[i];
    const std::string path = JoinPath(dir, name);
    DIEVENT_ASSIGN_OR_RETURN(JournalSegmentScan scan,
                             ScanJournalSegment(fs, path, index, replay));
    ++report.journal_segments;
    report.journal_records += scan.valid_records;
    if (!scan.damaged && !scan.payload_rejected) continue;

    const bool last = i + 1 == segments.size();
    report.problems.push_back(StrFormat(
        "segment %s: %s at byte %llu%s", name.c_str(), scan.damage.c_str(),
        static_cast<unsigned long long>(scan.valid_bytes),
        (last && scan.damaged) ? " (torn tail)" : ""));
    if (!last) {
      report.problems.push_back(StrFormat(
          "%zu later segment(s) unreachable past the damage",
          segments.size() - i - 1));
    }
    if (options.repair) {
      if (scan.valid_bytes == 0) {
        DIEVENT_RETURN_NOT_OK(fs->Remove(path));
        report.repairs.push_back("removed unreadable segment " + name);
      } else {
        DIEVENT_RETURN_NOT_OK(fs->Truncate(path, scan.valid_bytes));
        report.repairs.push_back(StrFormat(
            "truncated %s to its %llu-byte valid prefix", name.c_str(),
            static_cast<unsigned long long>(scan.valid_bytes)));
      }
      for (size_t j = i + 1; j < segments.size(); ++j) {
        const std::string later = JoinPath(dir, segments[j].second);
        DIEVENT_RETURN_NOT_OK(fs->Rename(later, later + ".corrupt"));
        report.repairs.push_back("quarantined " + segments[j].second);
      }
    }
    break;  // everything after the damage is quarantined or reported
  }

  // --- re-anchor a lost snapshot ----------------------------------------
  // If the snapshot is gone (corrupt, quarantined, deleted) but the
  // journal starts past sequence 1, replay needs an anchor carrying the
  // folded sequence so the surviving records still apply without a gap.
  if (!report.snapshot_ok && first_seq > 1) {
    if (!report.snapshot_present) {
      report.problems.push_back(StrFormat(
          "journal starts at sequence %llu but no snapshot anchors it",
          static_cast<unsigned long long>(first_seq)));
    }
    if (options.repair) {
      MetadataRepository empty;
      DIEVENT_RETURN_NOT_OK(empty.Save(fs, snapshot_path, first_seq - 1));
      report.repairs.push_back(StrFormat(
          "wrote empty anchor snapshot at sequence %llu",
          static_cast<unsigned long long>(first_seq - 1)));
    }
  }

  // --- verification ------------------------------------------------------
  if (options.repair) {
    DurableStoreOptions store_options;
    store_options.fs = fs;
    store_options.journal = options.journal;
    auto store = DurableEventStore::Open(dir, store_options);
    if (store.ok()) {
      report.verified = true;
      (void)store.value()->Close();
    } else {
      report.problems.push_back("post-repair verification failed: " +
                                store.status().message());
    }
  }
  return report;
}

std::string FleetFsckReport::ToString() const {
  std::string out = StrFormat("fleet fsck: %zu store(s), %d damaged\n",
                              stores.size(), damaged);
  for (const FleetFsckEntry& entry : stores) {
    out += StrFormat("store %s: %s\n", entry.name.c_str(),
                     entry.damaged ? "DAMAGED" : "clean");
    if (entry.damaged) out += entry.report.ToString();
  }
  return out;
}

Result<FleetFsckReport> RunFleetFsck(FileSystem* fs,
                                     const std::string& root,
                                     const FsckOptions& options) {
  if (!fs->Exists(root)) {
    return Status::NotFound("no such fleet root: " + root);
  }
  DIEVENT_ASSIGN_OR_RETURN(std::vector<std::string> names,
                           fs->ListDir(root));
  std::sort(names.begin(), names.end());

  FleetFsckReport fleet;
  for (const std::string& name : names) {
    const std::string dir = JoinPath(root, name);
    // A store is a subdirectory; regular files under the root (logs,
    // configs) are not ours to judge. Listing is the only directory
    // probe the FileSystem interface offers.
    if (!fs->ListDir(dir).ok()) continue;
    FleetFsckEntry entry;
    entry.name = name;
    DIEVENT_ASSIGN_OR_RETURN(entry.report, RunFsck(fs, dir, options));
    entry.damaged =
        options.repair ? !entry.report.verified : !entry.report.clean();
    if (entry.damaged) ++fleet.damaged;
    fleet.stores.push_back(std::move(entry));
  }
  return fleet;
}

}  // namespace dievent
