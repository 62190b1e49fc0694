#include "video/image_sequence_source.h"

#include <cctype>

#include "common/strings.h"
#include "image/pnm_io.h"

namespace dievent {

namespace {

/// True when `pattern` is safe to hand to printf with one int argument:
/// exactly one %d conversion, optionally with a width of at most two
/// digits (%04d), and no other conversion apart from %% for a literal %.
bool IsFramePattern(const std::string& pattern) {
  int conversions = 0;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] != '%') continue;
    if (++i < pattern.size() && pattern[i] == '%') continue;
    const size_t width_start = i;
    while (i < pattern.size() &&
           std::isdigit(static_cast<unsigned char>(pattern[i]))) {
      ++i;
    }
    if (i == pattern.size() || pattern[i] != 'd' || i - width_start > 2) {
      return false;
    }
    ++conversions;
  }
  return conversions == 1;
}

}  // namespace

std::string ImageSequenceSource::FramePath(int index) const {
  return StrFormat(pattern_.c_str(), first_index_ + index);
}

Result<ImageSequenceSource> ImageSequenceSource::Open(
    const std::string& pattern, double fps, int first_index,
    FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  if (fps <= 0) return Status::InvalidArgument("fps must be positive");
  if (!IsFramePattern(pattern)) {
    return Status::InvalidArgument(
        "pattern must contain exactly one %d-style frame placeholder (%d "
        "or %0Nd; write %% for a literal %): " +
        pattern);
  }
  ImageSequenceSource probe(pattern, fps, first_index, 0, fs);
  if (!fs->Exists(probe.FramePath(0))) {
    return Status::NotFound("no frame at " + probe.FramePath(0));
  }
  int count = 1;
  while (fs->Exists(probe.FramePath(count))) ++count;
  return ImageSequenceSource(pattern, fps, first_index, count, fs);
}

Result<VideoFrame> ImageSequenceSource::GetFrame(int index) {
  if (index < 0 || index >= num_frames_) {
    return Status::OutOfRange(
        StrFormat("frame %d outside [0, %d)", index, num_frames_));
  }
  const std::string path = FramePath(index);
  DIEVENT_ASSIGN_OR_RETURN(std::string data, fs_->ReadFile(path));
  DIEVENT_ASSIGN_OR_RETURN(ImageRgb image, ParsePpm(data, path));
  VideoFrame frame;
  frame.index = index;
  frame.timestamp_s = index / fps_;
  frame.image = std::move(image);
  return frame;
}

}  // namespace dievent
