/// \file file.h
/// Minimal filesystem abstraction for the durability layer.
///
/// Everything the journal, snapshot writer, and fsck touch on disk goes
/// through FileSystem so tests can interpose FaultyFileSystem (seeded
/// short writes, torn writes, EIO, fsync failure, power-cut truncation)
/// and crash drills can cut the writer at an exact byte. The production
/// implementation is POSIX: real fsync, real rename, real O_APPEND.
///
/// Durability contract (mirrored by the fault harness):
///  - Append() places bytes in the OS buffer; they survive process death
///    but NOT power loss until Sync() returns OK.
///  - Rename() is atomic with respect to concurrent readers; it is
///    durable only after SyncDir() on the containing directory.
///  - AtomicWriteFile() = write temp, fsync, rename, fsync dir: readers
///    see either the old file or the complete new one, never a prefix.

#ifndef DIEVENT_IO_FILE_H_
#define DIEVENT_IO_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace dievent {

/// An open file being appended to. Not thread-safe; callers serialize.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `data` at the end of the file.
  virtual Status Append(std::string_view data) = 0;

  /// Flushes written bytes to stable storage (fsync).
  virtual Status Sync() = 0;

  /// Closes the handle. Idempotent; Append/Sync after Close fail.
  virtual Status Close() = 0;
};

/// The set of filesystem operations the durability layer depends on.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Opens (creating if absent) for appending at the current end.
  virtual Result<std::unique_ptr<WritableFile>> OpenForAppend(
      const std::string& path) = 0;

  /// Opens for writing, truncating any existing contents.
  virtual Result<std::unique_ptr<WritableFile>> OpenForWrite(
      const std::string& path) = 0;

  /// Reads the entire file into a string.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;

  virtual Result<uint64_t> FileSize(const std::string& path) = 0;

  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  virtual Status Remove(const std::string& path) = 0;

  /// Removes an empty directory (POSIX rmdir semantics).
  virtual Status RemoveDir(const std::string& path) = 0;

  /// Truncates the file to exactly `size` bytes.
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;

  /// Creates the directory (and parents). OK if it already exists as a
  /// directory; IoError if the path names a file of another kind.
  virtual Status CreateDir(const std::string& path) = 0;

  virtual bool Exists(const std::string& path) = 0;

  /// Entry names (not paths) in `dir`, sorted, excluding "." and "..".
  virtual Result<std::vector<std::string>> ListDir(
      const std::string& dir) = 0;

  /// fsyncs the directory itself so renames/creates within it are
  /// durable across power loss.
  virtual Status SyncDir(const std::string& dir) = 0;

  /// The process-wide POSIX filesystem.
  static FileSystem* Default();
};

/// Crash-consistent whole-file replacement: writes `path`.tmp, fsyncs,
/// renames over `path`, fsyncs the directory. On any failure the
/// original `path` (if present) is untouched.
Status AtomicWriteFile(FileSystem* fs, const std::string& path,
                       std::string_view data);

/// Joins a directory and an entry name with exactly one separator.
std::string JoinPath(const std::string& dir, const std::string& name);

}  // namespace dievent

#endif  // DIEVENT_IO_FILE_H_
