/// \file image.h
/// The in-memory image type shared by the renderer, video pipeline, and
/// vision components.
///
/// Pixels are stored row-major with interleaved channels. The one
/// instantiation is Image<uint8_t>, under two names that document the
/// channel count the type itself does not enforce: ImageU8 for 1-channel
/// grayscale (the emotion path's face crops) and ImageRgb for 3-channel
/// color frames (the 640x480 frames of the paper's rig).

#ifndef DIEVENT_IMAGE_IMAGE_H_
#define DIEVENT_IMAGE_IMAGE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace dievent {

template <typename T>
class Image {
 public:
  Image() = default;

  /// Allocates a width x height image with `channels` interleaved channels,
  /// zero-initialized.
  Image(int width, int height, int channels = 1)
      : width_(width),
        height_(height),
        channels_(channels),
        data_(static_cast<size_t>(width) * height * channels, T{}) {
    assert(width >= 0 && height >= 0 && channels >= 1);
  }

  int width() const { return width_; }
  int height() const { return height_; }
  int channels() const { return channels_; }
  bool empty() const { return data_.empty(); }
  size_t size() const { return data_.size(); }

  const std::vector<T>& data() const { return data_; }
  std::vector<T>& data() { return data_; }

  /// Unchecked pixel access (checked by assert in debug builds).
  T& at(int x, int y, int c = 0) {
    assert(Inside(x, y) && c >= 0 && c < channels_);
    return data_[(static_cast<size_t>(y) * width_ + x) * channels_ + c];
  }
  const T& at(int x, int y, int c = 0) const {
    assert(Inside(x, y) && c >= 0 && c < channels_);
    return data_[(static_cast<size_t>(y) * width_ + x) * channels_ + c];
  }

  /// True when (x, y) lies within the image bounds.
  bool Inside(int x, int y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  /// Sets every sample in every channel to `value`.
  void Fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Re-dimensions the image in place, reusing the existing storage
  /// capacity where possible. Pixel contents are unspecified afterwards —
  /// this is for scratch images that are fully overwritten each frame.
  void Reshape(int width, int height, int channels = 1) {
    assert(width >= 0 && height >= 0 && channels >= 1);
    width_ = width;
    height_ = height;
    channels_ = channels;
    data_.resize(static_cast<size_t>(width) * height * channels);
  }

  /// Reads a pixel with the coordinates clamped to the image border.
  T AtClamped(int x, int y, int c = 0) const {
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return at(x, y, c);
  }

  /// Copies the axis-aligned window [x0, x0+w) x [y0, y0+h) into `out`,
  /// clamping reads at the border (so crops may exceed the bounds). Reuses
  /// `out`'s storage when the size already matches — the emotion path crops
  /// one face per observation per frame, and a fresh allocation per crop is
  /// measurable on that hot path.
  void CropInto(int x0, int y0, int w, int h, Image<T>* out) const {
    assert(w >= 0 && h >= 0);
    out->width_ = w;
    out->height_ = h;
    out->channels_ = channels_;
    out->data_.resize(static_cast<size_t>(w) * h * channels_);
    T* dst = out->data_.data();
    for (int y = 0; y < h; ++y) {
      const int sy = std::clamp(y0 + y, 0, height_ - 1);
      const int x_lo = std::clamp(-x0, 0, w);
      const int x_hi = std::clamp(width_ - x0, 0, w);
      // Left and right of the source bounds: replicate the border pixel.
      for (int x = 0; x < x_lo; ++x)
        for (int c = 0; c < channels_; ++c) *dst++ = at(0, sy, c);
      if (x_hi > x_lo) {
        const T* src =
            &data_[(static_cast<size_t>(sy) * width_ + (x0 + x_lo)) *
                   channels_];
        const size_t n = static_cast<size_t>(x_hi - x_lo) * channels_;
        std::copy(src, src + n, dst);
        dst += n;
      }
      for (int x = std::max(x_hi, x_lo); x < w; ++x)
        for (int c = 0; c < channels_; ++c) *dst++ = at(width_ - 1, sy, c);
    }
  }

  bool operator==(const Image<T>& o) const {
    return width_ == o.width_ && height_ == o.height_ &&
           channels_ == o.channels_ && data_ == o.data_;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  int channels_ = 1;
  std::vector<T> data_;
};

using ImageU8 = Image<uint8_t>;

/// 3-channel 8-bit color image (RGB interleaved).
using ImageRgb = Image<uint8_t>;

/// 8-bit RGB color value.
struct Rgb {
  uint8_t r = 0;
  uint8_t g = 0;
  uint8_t b = 0;

  bool operator==(const Rgb&) const = default;
};

/// ITU-R BT.601 luma, writing into `out` (storage reused; must not alias
/// `rgb`). 1-channel inputs are copied through.
inline void ToGrayInto(const ImageRgb& rgb, ImageU8* out) {
  if (rgb.channels() == 1) {
    *out = rgb;
    return;
  }
  out->Reshape(rgb.width(), rgb.height(), 1);
  for (int y = 0; y < rgb.height(); ++y) {
    for (int x = 0; x < rgb.width(); ++x) {
      double v = 0.299 * rgb.at(x, y, 0) + 0.587 * rgb.at(x, y, 1) +
                 0.114 * rgb.at(x, y, 2);
      out->at(x, y) = static_cast<uint8_t>(v + 0.5);
    }
  }
}

/// Reads an RGB pixel from a 3-channel image.
inline Rgb GetRgb(const ImageRgb& img, int x, int y) {
  return Rgb{img.at(x, y, 0), img.at(x, y, 1), img.at(x, y, 2)};
}

/// Writes an RGB pixel into a 3-channel image (no-op out of bounds).
inline void PutRgb(ImageRgb* img, int x, int y, const Rgb& color) {
  if (!img->Inside(x, y)) return;
  img->at(x, y, 0) = color.r;
  img->at(x, y, 1) = color.g;
  img->at(x, y, 2) = color.b;
}

}  // namespace dievent

#endif  // DIEVENT_IMAGE_IMAGE_H_
