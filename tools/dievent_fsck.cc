/// \file dievent_fsck.cc
/// Scrubs, verifies and repairs DurableEventStore directories:
///
///   dievent_fsck /data/events/dinner-2026-08-08  # verify only
///   dievent_fsck --fleet --repair /data/fleet    # fix every store
///
/// Exit codes:
///   0  clean store(s), or repairs applied and the store(s) reopen
///      cleanly
///   1  problems found (verify mode) or post-repair verification failed
///      — in fleet mode, in any store
///   2  usage or environmental error (missing directory, unreadable)

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "io/file.h"
#include "metadata/fsck.h"

int main(int argc, char** argv) {
  bool repair = false;
  bool fleet = false;
  std::string dir;
  dievent::FlagParser flags(
      "dievent_fsck",
      "Verifies a durable event store (snapshot and journal checksums,\n"
      "record decode, sequence continuity) without touching the disk.");
  flags.Bool("repair", &repair,
             "also remove stray checkpoint temps, truncate torn journal\n"
             "tails, quarantine unreachable segments and corrupt\n"
             "snapshots, then re-verify by reopening the store");
  flags.Bool("fleet", &fleet,
             "<fleet-root> holds one tenant store per subdirectory: scan\n"
             "them all; the exit code is non-zero iff any is damaged");
  flags.Positional("store-dir|fleet-root", &dir);
  flags.ParseOrExit(argc, argv);

  dievent::FsckOptions options;
  options.repair = repair;
  if (fleet) {
    auto result = dievent::RunFleetFsck(dievent::FileSystem::Default(),
                                        dir, options);
    if (!result.ok()) return flags.Error(result.status());
    const dievent::FleetFsckReport& report = result.value();
    std::fputs(report.ToString().c_str(), stdout);
    return report.clean() ? 0 : 1;
  }
  auto result =
      dievent::RunFsck(dievent::FileSystem::Default(), dir, options);
  if (!result.ok()) return flags.Error(result.status());
  const dievent::FsckReport& report = result.value();
  std::fputs(report.ToString().c_str(), stdout);
  if (repair) return report.verified ? 0 : 1;
  return report.clean() ? 0 : 1;
}
