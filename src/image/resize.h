/// \file resize.h
/// Bilinear resampling, which normalizes face crops to the emotion
/// classifier's input size.

#ifndef DIEVENT_IMAGE_RESIZE_H_
#define DIEVENT_IMAGE_RESIZE_H_

#include "image/image.h"

namespace dievent {

/// Bilinear resampling of a 1-channel image to the given size, written
/// into `out` (must not alias `gray`) and reusing its storage — for
/// per-frame scratch on the emotion path.
void ResizeBilinearInto(const ImageU8& gray, int new_width, int new_height,
                        ImageU8* out);

}  // namespace dievent

#endif  // DIEVENT_IMAGE_RESIZE_H_
