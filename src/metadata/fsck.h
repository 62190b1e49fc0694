/// \file fsck.h
/// Scrub / verify / repair for a DurableEventStore directory.
///
/// Verify mode (`repair = false`) reads every byte of the snapshot and
/// journal — section CRCs, frame CRCs — and replays every journal
/// payload through the store's own replay core (ApplyJournalPayload:
/// decode, batch entries, sequence dedup and gaps, and the
/// repository's own checks such as look-at frame order) on top of the
/// snapshot's state. It reports problems without touching the disk.
/// fsck accepts exactly what recovery replays: a store that verifies
/// clean opens with DurableEventStore::Open, and one that Open refuses
/// is reported at the record that stops the replay.
///
/// Repair mode additionally applies the safe subset of fixes:
///   - stray checkpoint temp files are removed
///   - a torn journal tail is truncated to its valid prefix
///   - a mid-stream corrupt segment is truncated at the damage and all
///     later segments (now unreachable past the sequence break) are
///     quarantined to `<name>.corrupt`
///   - a corrupt snapshot is quarantined and replaced by an empty one
///     anchored at the journal's first sequence, so the surviving
///     journal records still replay (checkpointed state before them is
///     reported as lost, never silently resurrected)
/// and finally verifies the repaired directory by opening it as a
/// DurableEventStore.

#ifndef DIEVENT_METADATA_FSCK_H_
#define DIEVENT_METADATA_FSCK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "io/journal.h"

namespace dievent {

struct FsckOptions {
  bool repair = false;
  /// Journal options used for the post-repair verification open.
  JournalOptions journal;
};

struct FsckReport {
  bool snapshot_present = false;
  bool snapshot_ok = false;
  uint64_t snapshot_sequence = 0;
  uint64_t journal_segments = 0;
  uint64_t journal_records = 0;  ///< journal frames that replayed
  /// Human-readable findings; empty => the store is clean.
  std::vector<std::string> problems;
  /// Repairs applied (repair mode only).
  std::vector<std::string> repairs;
  /// Repair mode: the repaired directory reopened cleanly.
  bool verified = false;

  bool clean() const { return problems.empty(); }
  std::string ToString() const;
};

/// Scrubs the store directory `dir`. Returns a non-OK Status only for
/// environmental failures (directory missing, unreadable files);
/// corruption findings land in the report.
Result<FsckReport> RunFsck(FileSystem* fs, const std::string& dir,
                           const FsckOptions& options = {});

/// One tenant's store within a fleet scan.
struct FleetFsckEntry {
  std::string name;  ///< subdirectory name under the fleet root
  FsckReport report;
  /// Mirrors the single-store CLI verdict: verify mode = any problem
  /// found; repair mode = the store failed post-repair verification.
  bool damaged = false;
};

/// Aggregate of a fleet-root scan.
struct FleetFsckReport {
  std::vector<FleetFsckEntry> stores;
  /// Stores with problems (verify mode) or that failed post-repair
  /// verification (repair mode).
  int damaged = 0;

  bool clean() const { return damaged == 0; }
  /// One summary line plus each damaged store's full report.
  std::string ToString() const;
};

/// Scrubs a fleet root as laid out by the event scheduler: every
/// subdirectory of `root` is one tenant's DurableEventStore, scanned
/// with RunFsck under the same options. Non-directory entries are
/// ignored. Like RunFsck, a non-OK Status means an environmental
/// failure; per-store damage lands in the report.
Result<FleetFsckReport> RunFleetFsck(FileSystem* fs,
                                     const std::string& root,
                                     const FsckOptions& options = {});

}  // namespace dievent

#endif  // DIEVENT_METADATA_FSCK_H_
