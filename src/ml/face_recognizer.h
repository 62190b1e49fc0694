/// \file face_recognizer.h
/// Identity recognition — the CMU OpenFace-library substitute.
///
/// Each participant wears a distinctive marker (the renderer's colored
/// cap, standing in for clothing/appearance identity cues). The embedder
/// summarizes a head crop into a small vector dominated by the marker
/// region's color statistics; recognition is nearest-centroid against
/// enrolled identities with a rejection threshold.

#ifndef DIEVENT_ML_FACE_RECOGNIZER_H_
#define DIEVENT_ML_FACE_RECOGNIZER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "image/image.h"
#include "sim/participant.h"
#include "vision/face_types.h"

namespace dievent {

/// Fixed-length appearance embedding of a detected head.
class FaceEmbedder {
 public:
  /// Embedding from the frame and the detection geometry (the marker
  /// region is located from the appearance model's cap position).
  std::vector<double> Embed(const ImageRgb& frame,
                            const FaceDetection& detection) const;

  /// As above, but overwrites `emb` reusing its capacity — the hot path
  /// embeds one head per detection per frame, so per-call allocation of
  /// the 67-dim vector is measurable.
  void EmbedInto(const ImageRgb& frame, const FaceDetection& detection,
                 std::vector<double>* emb) const;

  /// Dimensionality of the embedding.
  static constexpr int kDims = 3 + 64;
};

/// A recognized identity.
struct IdentityMatch {
  int id = -1;          ///< enrolled id, -1 = unknown
  double distance = 0;  ///< embedding distance to the winning centroid
  double confidence = 0;
};

class FaceRecognizer {
 public:
  explicit FaceRecognizer(double reject_distance = 0.35)
      : reject_distance_(reject_distance) {}

  /// Enrolls one *view* of an identity from a gallery of embeddings; their
  /// centroid becomes a signature. An identity may enroll several views
  /// (e.g. frontal and back-of-head), each with its own centroid — do not
  /// mix views in one call, or the centroid lands between the clusters.
  Status Enroll(int id, const std::string& name,
                const std::vector<std::vector<double>>& embeddings);

  /// Enrolls every participant of a profile list by rendering synthetic
  /// gallery crops (front and back views at several sizes).
  Status EnrollProfiles(const std::vector<ParticipantProfile>& profiles);

  /// Nearest-centroid classification with rejection.
  IdentityMatch Recognize(const std::vector<double>& embedding) const;

  /// Convenience: embed + recognize. Safe to call concurrently; the
  /// embedding reuses a per-thread vector.
  IdentityMatch Recognize(const ImageRgb& frame,
                          const FaceDetection& detection) const;

  int NumEnrolled() const { return static_cast<int>(centroids_.size()); }

 private:
  struct Enrolled {
    int id;
    std::string name;
    std::vector<double> centroid;
  };

  FaceEmbedder embedder_;
  double reject_distance_;
  std::vector<Enrolled> centroids_;
};

}  // namespace dievent

#endif  // DIEVENT_ML_FACE_RECOGNIZER_H_
