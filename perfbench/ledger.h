/// \file ledger.h
/// Measurement helpers shared by the benchmark workloads and their
/// self-tests: the tail-percentile rule, an in-memory span recorder with
/// self-time arithmetic, and timing decorators for the library's
/// VideoSource and FileSystem interfaces. Everything here sits outside
/// the library: spans are recorded around public calls, never inside.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/file.h"
#include "video/video_source.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
inline double NowS() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

// --- percentiles -----------------------------------------------------------

/// Candidate tail percentiles in parts per 10000, highest first. The
/// ladder stops at p99: on a shared host, p99.9 of an fsync-bound run
/// moved by 29% (quartile distance over median) across ten identical
/// runs, wider than any bound a regression check could use.
inline constexpr int kTailLadder[] = {9900, 9000, 5000};

/// Nearest-rank percentile of sorted `v`; `p` in parts per 10000.
inline double PercentileSorted(const std::vector<double>& v, int p) {
  if (v.empty()) return 0.0;
  const size_t n = v.size();
  size_t rank = (static_cast<size_t>(p) * n + 9999) / 10000;  // ceil
  rank = std::clamp<size_t>(rank, 1, n);
  return v[rank - 1];
}

/// The highest ladder percentile (parts per 10000) with at least ten
/// samples above its nearest rank, or 0 when even the median lacks them.
inline int TailPercentile(size_t n) {
  for (int p : kTailLadder) {
    const size_t rank = (static_cast<size_t>(p) * n + 9999) / 10000;
    if (n >= rank + 10) return p;
  }
  return 0;
}

/// Median and tail of a latency sample, with the percentile the tail
/// stands for and the sample count.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  int tail_p = 0;  ///< parts per 10000; 0 = too few samples (tail = max)
};

inline LatencySummary Summarize(std::vector<double> v) {
  LatencySummary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = PercentileSorted(v, 5000);
  s.tail_p = TailPercentile(v.size());
  s.tail = s.tail_p > 0 ? PercentileSorted(v, s.tail_p) : v.back();
  return s;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean without the lowest and the highest value (the plain mean below
/// three values). One burst of host interference moves it little, and
/// unlike a median it does not hinge on one or two middle samples when
/// the series has a trend.
inline double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() >= 3 ? 1 : 0;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// --- spans -----------------------------------------------------------------

/// One timed call: `parent` is the span that caused it (0 = none), which
/// may live on another thread (a camera read issued by the acquiring
/// thread runs on a reader thread).
struct Span {
  const char* name = "";
  double start_s = 0;
  double end_s = 0;
  int64_t id = 0;
  int64_t parent = 0;
  int thread = 0;

  double Duration() const { return end_s - start_s; }
};

/// Thread-safe in-memory span sink. A disabled recorder records nothing,
/// so the untraced run pays one branch per decorated call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  int64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  /// Appends a finished span (used by tests and for spans whose interval
  /// is measured elsewhere).
  int64_t Add(const char* name, double start_s, double end_s,
              int64_t parent = 0, int thread = 0) {
    Span s{name, start_s, end_s, NextId(), parent, thread};
    Record(s);
    return s.id;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes every span as CSV: name, start, end, id, parent, thread.
  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("name,start_s,end_s,id,parent,thread\n", f);
    for (const Span& s : spans()) {
      std::fprintf(f, "%s,%.9f,%.9f,%lld,%lld,%d\n", s.name, s.start_s,
                   s.end_s, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), s.thread);
    }
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Small dense id for the calling thread (0 = first thread to ask).
inline int ThreadTag() {
  static std::atomic<int> next{0};
  thread_local const int tag = next.fetch_add(1);
  return tag;
}

/// RAII span. Nests under the calling thread's open span unless an
/// explicit parent is given.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t parent = -1)
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                             : nullptr) {
    if (recorder_ == nullptr) return;
    span_.name = name;
    span_.id = recorder_->NextId();
    span_.parent = parent >= 0 ? parent : Current();
    span_.thread = ThreadTag();
    saved_ = Current();
    Current() = span_.id;
    span_.start_s = NowS();
  }
  ~ScopedSpan() {
    if (recorder_ == nullptr) return;
    span_.end_s = NowS();
    Current() = saved_;
    recorder_->Record(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }

  /// The calling thread's innermost open span (0 = none).
  static int64_t& Current() {
    thread_local int64_t current = 0;
    return current;
  }

 private:
  SpanRecorder* recorder_;
  Span span_;
  int64_t saved_ = 0;
};

/// Per-span self time, parallel to `spans`: its duration minus the part
/// of its interval that the union of its children's intervals covers
/// (children may overlap one another when they run on several threads).
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_s, s.end_s});
  }
  std::vector<double> self;
  self.reserve(spans.size());
  for (const Span& s : spans) {
    double covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv;
      for (auto [a, b] : it->second) {
        a = std::max(a, s.start_s);
        b = std::min(b, s.end_s);
        if (b > a) iv.push_back({a, b});
      }
      std::sort(iv.begin(), iv.end());
      double cur_a = 0, cur_b = 0;
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (open && a <= cur_b) {
          cur_b = std::max(cur_b, b);
          continue;
        }
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      }
      if (open) covered += cur_b - cur_a;
    }
    self.push_back(s.Duration() - covered);
  }
  return self;
}

/// Span durations (or self times) grouped by span name.
struct SpanStats {
  std::map<std::string, std::vector<double>> duration;
  std::map<std::string, std::vector<double>> self;

  explicit SpanStats(const std::vector<Span>& spans) {
    const std::vector<double> self_times = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      duration[spans[i].name].push_back(spans[i].Duration());
      self[spans[i].name].push_back(self_times[i]);
    }
  }
  double SumSelf(const std::string& name) const {
    auto it = self.find(name);
    double total = 0;
    if (it != self.end()) {
      for (double s : it->second) total += s;
    }
    return total;
  }
  size_t Count(const std::string& name) const {
    auto it = duration.find(name);
    return it == duration.end() ? 0 : it->second.size();
  }
  double MedianDuration(const std::string& name) const {
    auto it = duration.find(name);
    return it == duration.end() ? 0.0 : Median(it->second);
  }
  double MedianSelf(const std::string& name) const {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : Median(it->second);
  }
};

// --- decorators ------------------------------------------------------------

/// Times every GetFrame of the wrapped source as a `render.view` span
/// whose parent is read from `*parent` (the acquiring thread publishes
/// its open span there before a synchronized read). Everything else is
/// forwarded unchanged.
class TimedVideoSource : public dievent::VideoSource {
 public:
  TimedVideoSource(std::unique_ptr<dievent::VideoSource> inner,
                   SpanRecorder* recorder, const std::atomic<int64_t>* parent)
      : inner_(std::move(inner)), recorder_(recorder), parent_(parent) {}

  int NumFrames() const override { return inner_->NumFrames(); }
  double Fps() const override { return inner_->Fps(); }
  dievent::Result<dievent::VideoFrame> GetFrame(int index) override {
    ScopedSpan span(recorder_, "render.view", parent_->load());
    return inner_->GetFrame(index);
  }
  void Interrupt() override { inner_->Interrupt(); }

 private:
  std::unique_ptr<dievent::VideoSource> inner_;
  SpanRecorder* recorder_;
  const std::atomic<int64_t>* parent_;
};

/// Which durability file a write targets, from its name.
enum class FileKind { kJournal, kSnapshot, kManifest, kOther };

inline FileKind ClassifyPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string_view name =
      std::string_view(path).substr(slash == std::string::npos ? 0 : slash + 1);
  if (name.size() >= 4 && name.substr(name.size() - 4) == ".wal") {
    return FileKind::kJournal;
  }
  if (name.rfind("snapshot", 0) == 0) return FileKind::kSnapshot;
  if (name.rfind("MANIFEST", 0) == 0) return FileKind::kManifest;
  return FileKind::kOther;
}

/// Byte and fsync tallies of one TimedFileSystem, per file kind.
struct IoCounters {
  static constexpr int kKinds = 4;
  std::atomic<uint64_t> append_bytes[kKinds] = {};
  std::atomic<uint64_t> syncs[kKinds] = {};
  std::atomic<uint64_t> read_bytes{0};

  uint64_t AppendBytes(FileKind k) const {
    return append_bytes[static_cast<int>(k)].load();
  }
  uint64_t Syncs(FileKind k) const { return syncs[static_cast<int>(k)].load(); }
  uint64_t AllSyncs() const {
    uint64_t total = 0;
    for (const auto& s : syncs) total += s.load();
    return total;
  }
};

/// FileSystem decorator: forwards every call to `inner` and records
/// appends, fsyncs, directory syncs and whole-file reads as spans
/// (`io.append`, `io.sync`, `io.syncdir`, `io.read`) plus byte tallies.
class TimedFileSystem : public dievent::FileSystem {
 public:
  TimedFileSystem(dievent::FileSystem* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  const IoCounters& counters() const { return counters_; }

  dievent::Result<std::unique_ptr<dievent::WritableFile>> OpenForAppend(
      const std::string& path) override {
    return Wrap(inner_->OpenForAppend(path), ClassifyPath(path));
  }
  dievent::Result<std::unique_ptr<dievent::WritableFile>> OpenForWrite(
      const std::string& path) override {
    return Wrap(inner_->OpenForWrite(path), ClassifyPath(path));
  }
  dievent::Result<std::string> ReadFile(const std::string& path) override {
    ScopedSpan span(recorder_, "io.read");
    dievent::Result<std::string> data = inner_->ReadFile(path);
    if (data.ok()) counters_.read_bytes.fetch_add(data.value().size());
    return data;
  }
  dievent::Result<uint64_t> FileSize(const std::string& path) override {
    return inner_->FileSize(path);
  }
  dievent::Status Rename(const std::string& from,
                         const std::string& to) override {
    return inner_->Rename(from, to);
  }
  dievent::Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  dievent::Status RemoveDir(const std::string& path) override {
    return inner_->RemoveDir(path);
  }
  dievent::Status Truncate(const std::string& path, uint64_t size) override {
    return inner_->Truncate(path, size);
  }
  dievent::Status CreateDir(const std::string& path) override {
    return inner_->CreateDir(path);
  }
  bool Exists(const std::string& path) override {
    return inner_->Exists(path);
  }
  dievent::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return inner_->ListDir(dir);
  }
  dievent::Status SyncDir(const std::string& dir) override {
    ScopedSpan span(recorder_, "io.syncdir");
    return inner_->SyncDir(dir);
  }

 private:
  class TimedFile : public dievent::WritableFile {
   public:
    TimedFile(std::unique_ptr<dievent::WritableFile> inner, FileKind kind,
              SpanRecorder* recorder, IoCounters* counters)
        : inner_(std::move(inner)),
          kind_(static_cast<int>(kind)),
          recorder_(recorder),
          counters_(counters) {}

    dievent::Status Append(std::string_view data) override {
      ScopedSpan span(recorder_, kind_ == static_cast<int>(FileKind::kJournal) ? "io.append"
                                                                   : "io.write");
      counters_->append_bytes[kind_].fetch_add(data.size());
      return inner_->Append(data);
    }
    dievent::Status Sync() override {
      ScopedSpan span(recorder_, "io.sync");
      counters_->syncs[kind_].fetch_add(1);
      return inner_->Sync();
    }
    dievent::Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<dievent::WritableFile> inner_;
    int kind_;
    SpanRecorder* recorder_;
    IoCounters* counters_;
  };

  dievent::Result<std::unique_ptr<dievent::WritableFile>> Wrap(
      dievent::Result<std::unique_ptr<dievent::WritableFile>> opened,
      FileKind kind) {
    if (!opened.ok()) return opened.status();
    return std::unique_ptr<dievent::WritableFile>(std::make_unique<TimedFile>(
        std::move(opened).TakeValue(), kind, recorder_, &counters_));
  }

  dievent::FileSystem* inner_;
  SpanRecorder* recorder_;
  IoCounters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
