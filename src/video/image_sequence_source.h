/// \file image_sequence_source.h
/// A VideoSource over numbered image files on disk — the adoption path
/// for real recordings: decode your footage to PPM frames (one directory
/// per camera) and DiEvent consumes it like any synthetic stream.

#ifndef DIEVENT_VIDEO_IMAGE_SEQUENCE_SOURCE_H_
#define DIEVENT_VIDEO_IMAGE_SEQUENCE_SOURCE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "io/file.h"
#include "video/video_source.h"

namespace dievent {

/// Streams frames from `pattern`, a printf-style path with one %d (e.g.
/// "frames/cam1_%06d.ppm"), indices starting at `first_index`. The
/// placeholder may carry a width of up to two digits; %% is a literal %,
/// and any other conversion is rejected.
class ImageSequenceSource : public VideoSource {
 public:
  /// Scans for consecutive files matching the pattern and fixes the frame
  /// count up front. Returns InvalidArgument for a pattern that is not of
  /// the shape above and NotFound when no frame exists at `first_index`.
  /// `fs` is the filesystem every read goes through (null = the real
  /// one); tests inject a FaultyFileSystem so mid-read I/O errors and
  /// short reads exercise the real decoder failure paths.
  static Result<ImageSequenceSource> Open(const std::string& pattern,
                                          double fps, int first_index = 0,
                                          FileSystem* fs = nullptr);

  int NumFrames() const override { return num_frames_; }
  double Fps() const override { return fps_; }

  /// Reads and decodes the frame from disk on every call (no cache; the
  /// pipeline streams each frame exactly once).
  Result<VideoFrame> GetFrame(int index) override;

 private:
  ImageSequenceSource(std::string pattern, double fps, int first_index,
                      int num_frames, FileSystem* fs)
      : pattern_(std::move(pattern)),
        fps_(fps),
        first_index_(first_index),
        num_frames_(num_frames),
        fs_(fs) {}

  std::string FramePath(int index) const;

  std::string pattern_;
  double fps_;
  int first_index_;
  int num_frames_;
  FileSystem* fs_;  ///< not owned; never null after Open
};

}  // namespace dievent

#endif  // DIEVENT_VIDEO_IMAGE_SEQUENCE_SOURCE_H_
