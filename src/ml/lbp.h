/// \file lbp.h
/// Local Binary Patterns — the paper's stated feature extractor for emotion
/// recognition (Section II-C: "we consider the Local Binary Patterns as a
/// feature extractor and neural network as a classifier").
///
/// Implements the classic LBP(8,1) operator with the uniform-pattern
/// mapping (58 uniform codes + 1 bucket for the rest) and spatially-gridded
/// histograms, the standard texture descriptor for facial expression.

#ifndef DIEVENT_ML_LBP_H_
#define DIEVENT_ML_LBP_H_

#include <cstdint>
#include <vector>

#include "image/image.h"

namespace dievent {

/// Number of bins of a uniform-LBP histogram (58 uniform + 1 non-uniform).
inline constexpr int kUniformLbpBins = 59;

/// Per-pixel LBP(8,1) codes, written into `out` and reusing its storage
/// (the emotion path computes codes for one crop per face per frame, and
/// a per-call allocation is measurable there). Border pixels use clamped
/// neighbours.
void ComputeLbpCodesInto(const ImageU8& gray, ImageU8* out);

/// Maps a raw 8-bit LBP code to its uniform-pattern bin in [0, 59).
int UniformLbpBin(uint8_t code);

/// Concatenated, per-cell-normalized uniform-LBP histograms over a
/// grid_x x grid_y partition of the image — the feature vector fed to the
/// emotion classifier. `codes_scratch` holds the per-pixel code image and
/// `features` is overwritten (resized to grid_x * grid_y *
/// kUniformLbpBins); both reuse their storage, so the steady state makes
/// no allocations.
void LbpGridFeaturesInto(const ImageU8& gray, int grid_x, int grid_y,
                         ImageU8* codes_scratch, std::vector<float>* features);

}  // namespace dievent

#endif  // DIEVENT_ML_LBP_H_
