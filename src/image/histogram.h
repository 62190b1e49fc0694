/// \file histogram.h
/// Color histograms plus the distance measures used for
/// shot-boundary detection and key-frame clustering (Section II-B).

#ifndef DIEVENT_IMAGE_HISTOGRAM_H_
#define DIEVENT_IMAGE_HISTOGRAM_H_

#include <vector>

#include "common/status.h"
#include "image/image.h"

namespace dievent {

/// A normalized histogram (bins sum to 1 for non-empty images).
struct Histogram {
  std::vector<double> bins;

  int NumBins() const { return static_cast<int>(bins.size()); }
};

/// True when `bins` is a valid per-channel bin count: a power of two in
/// [1, 256]. ComputeColorHistogram requires it. A power of two divides the
/// 256 intensity levels evenly, so no value maps past the last bin, and it
/// makes every soft-binning weight a dyadic fraction, which is what lets the
/// color kernel accumulate exactly in fixed point.
bool IsValidBinCount(int bins);

/// OK when IsValidBinCount(bins); otherwise InvalidArgument naming `option`.
/// For entry points that take a bin count from caller options.
Status ValidateBinCount(int bins, const char* option);

/// Joint color histogram with `bins_per_channel`^3 bins (coarse RGB cube).
/// This is the frame signature used by shot-boundary detection and key-frame
/// extraction. Requires a 3-channel image and
/// IsValidBinCount(bins_per_channel); aborts otherwise.
///
/// With `soft_binning`, each pixel's mass is split trilinearly between the
/// two nearest bins per channel, so a smooth illumination ramp moves
/// histogram mass gradually instead of jumping when a flat region crosses
/// a bin edge (which would read as a spurious hard cut).
///
/// Both modes accumulate integers: plain counts, or trilinear weight
/// products in units of q^-3, where q = 2 * 256 / bins_per_channel. Each bin
/// is converted to double once, so the result is bit-identical to summing
/// the products in double precision pixel by pixel, for any image of at most
/// 2^53 / q^3 pixels (2^35 at 8 bins per channel; DESIGN.md §16).
///
/// The soft kernel probes each row: a row where at least 8 of the first 16
/// pixels repeat their left neighbour (a rendered background or table row)
/// adds each run of identical pixels once, weighted by its length; any
/// other row (sensor noise) takes the per-pixel loop. Both paths add the
/// same integers, so the result does not depend on which one a row took.
Histogram ComputeColorHistogram(const ImageRgb& rgb,
                                int bins_per_channel = 8,
                                bool soft_binning = false);

/// Chi-square distance: 0 for identical histograms; robust to small shifts.
double ChiSquareDistance(const Histogram& a, const Histogram& b);

/// L1 (sum of absolute differences) distance in [0, 2].
double L1Distance(const Histogram& a, const Histogram& b);

/// Histogram intersection similarity in [0, 1]; 1 for identical histograms.
double IntersectionSimilarity(const Histogram& a, const Histogram& b);

}  // namespace dievent

#endif  // DIEVENT_IMAGE_HISTOGRAM_H_
