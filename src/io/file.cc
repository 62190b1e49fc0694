#include "io/file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace dievent {

namespace {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::IoError(
      StrFormat("%s %s: %s", op.c_str(), path.c_str(), strerror(errno)));
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::FailedPrecondition("file closed: " + path_);
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write", path_);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::FailedPrecondition("file closed: " + path_);
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close", path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixFileSystem : public FileSystem {
 public:
  Result<std::unique_ptr<WritableFile>> OpenForAppend(
      const std::string& path) override {
    return OpenFlags(path, O_WRONLY | O_CREAT | O_APPEND);
  }

  Result<std::unique_ptr<WritableFile>> OpenForWrite(
      const std::string& path) override {
    return OpenFlags(path, O_WRONLY | O_CREAT | O_TRUNC);
  }

  Result<std::string> ReadFile(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("open", path);
    std::string out;
    char buf[1 << 16];
    for (;;) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        Status s = ErrnoStatus("read", path);
        ::close(fd);
        return s;
      }
      if (n == 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return out;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat", path);
    return static_cast<uint64_t>(st.st_size);
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", from + " -> " + to);
    }
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink", path);
    return Status::OK();
  }

  Status RemoveDir(const std::string& path) override {
    if (::rmdir(path.c_str()) != 0) return ErrnoStatus("rmdir", path);
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("truncate", path);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    // mkdir -p: create each prefix, tolerating existing directories.
    std::string prefix;
    for (size_t i = 0; i <= path.size(); ++i) {
      if (i < path.size() && path[i] != '/') continue;
      prefix = path.substr(0, i);
      if (prefix.empty() || prefix == ".") continue;
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        return ErrnoStatus("mkdir", prefix);
      }
    }
    if (::mkdir(path.c_str(), 0755) != 0) {
      if (errno != EEXIST) return ErrnoStatus("mkdir", path);
      // EEXIST also means a file of another kind holds the name.
      struct stat st;
      if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat", path);
      if (!S_ISDIR(st.st_mode)) {
        return Status::IoError("mkdir " + path + ": not a directory");
      }
    }
    return Status::OK();
  }

  bool Exists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return ErrnoStatus("opendir", dir);
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      names.push_back(std::move(name));
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
  }

  Status SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return ErrnoStatus("open dir", dir);
    Status s = Status::OK();
    if (::fsync(fd) != 0) s = ErrnoStatus("fsync dir", dir);
    ::close(fd);
    return s;
  }

 private:
  static Result<std::unique_ptr<WritableFile>> OpenFlags(
      const std::string& path, int flags) {
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return ErrnoStatus("open", path);
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
  }
};

}  // namespace

FileSystem* FileSystem::Default() {
  static PosixFileSystem* fs = new PosixFileSystem();
  return fs;
}

Status AtomicWriteFile(FileSystem* fs, const std::string& path,
                       std::string_view data) {
  const std::string tmp = path + ".tmp";
  DIEVENT_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                           fs->OpenForWrite(tmp));
  Status s = file->Append(data);
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (!s.ok()) {
    (void)file->Close();
    (void)fs->Remove(tmp);  // best-effort cleanup; original untouched
    return s;
  }
  DIEVENT_RETURN_NOT_OK(fs->Rename(tmp, path));
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  return fs->SyncDir(dir);
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

}  // namespace dievent
