/// \file pnm_io.h
/// Binary PPM (P6) reading and writing.
///
/// PPM is the only on-disk image format DiEvent needs: examples dump
/// rendered frames and look-at maps for inspection, and
/// ImageSequenceSource reads real footage decoded to numbered PPM frames,
/// all without any codec dependency.

#ifndef DIEVENT_IMAGE_PNM_IO_H_
#define DIEVENT_IMAGE_PNM_IO_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "image/image.h"

namespace dievent {

/// Writes a 3-channel image as binary PPM.
Status WritePpm(const ImageRgb& image, const std::string& path);

/// Reads a binary PPM into a 3-channel image.
Result<ImageRgb> ReadPpm(const std::string& path);

/// Parses a binary PPM from an in-memory buffer. `name` appears in
/// error messages (typically the originating path). Lets callers that
/// read bytes through an injectable FileSystem reuse the real decoder.
Result<ImageRgb> ParsePpm(std::string_view data, const std::string& name);

}  // namespace dievent

#endif  // DIEVENT_IMAGE_PNM_IO_H_
