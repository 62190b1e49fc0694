/// \file emotion_recognizer.h
/// LBP + neural-network emotion recognition (paper Section II-C).
///
/// The recognizer is trained on synthetic face crops rendered by the same
/// appearance model the frames use — the stand-in for the paper's
/// "trained model for emotion recognition". Training is deterministic
/// given a seed and takes a few seconds at the default configuration.

#ifndef DIEVENT_ML_EMOTION_RECOGNIZER_H_
#define DIEVENT_ML_EMOTION_RECOGNIZER_H_

#include <vector>

#include "common/emotion.h"
#include "common/result.h"
#include "common/rng.h"
#include "image/image.h"
#include "ml/neural_net.h"

namespace dievent {

struct EmotionRecognizerOptions {
  int crop_size = 48;      ///< faces are normalized to this square size
  int lbp_grid = 6;        ///< LBP grid cells per axis
  int hidden_units = 48;
  int samples_per_class = 160;
  double train_noise_sigma = 6.0;  ///< pixel noise augmentation
  TrainOptions train{.epochs = 40};

  /// Feature-vector length implied by the crop/grid settings.
  int FeatureSize() const;
};

/// A classification outcome.
struct EmotionPrediction {
  Emotion emotion = Emotion::kNeutral;
  double confidence = 0.0;                 ///< softmax probability
  std::vector<float> class_probabilities;  ///< indexed by Emotion value
};

class EmotionRecognizer {
 public:
  /// Trains a fresh recognizer on rendered expression crops.
  static Result<EmotionRecognizer> Train(
      const EmotionRecognizerOptions& options, Rng* rng);

  /// Wraps an existing network (e.g. loaded from disk). The network's
  /// input size must match the options' feature size.
  static Result<EmotionRecognizer> FromNetwork(
      const EmotionRecognizerOptions& options, NeuralNet net);

  /// Classifies a face crop (any size or channel count; converted and
  /// resized internally). Safe to call concurrently; the workspace is per
  /// thread.
  EmotionPrediction Recognize(const ImageRgb& face_crop) const;

  /// Accuracy over a freshly-rendered, noise-perturbed evaluation set
  /// (disjoint noise realizations from training).
  double EvaluateOnRendered(int samples_per_class, Rng* rng) const;

  /// Row-normalized confusion matrix over a rendered evaluation set;
  /// entry [truth][predicted].
  std::vector<std::vector<double>> ConfusionOnRendered(int samples_per_class,
                                                       Rng* rng) const;

  const NeuralNet& network() const { return net_; }
  const EmotionRecognizerOptions& options() const { return options_; }
  const std::vector<EpochStats>& training_history() const {
    return history_;
  }

 private:
  EmotionRecognizer(EmotionRecognizerOptions options, NeuralNet net)
      : options_(options), net_(std::move(net)) {}

  EmotionRecognizerOptions options_;
  NeuralNet net_;
  std::vector<EpochStats> history_;
};

/// Renders one augmented training/eval crop: random intensity, gaze,
/// identity color, and pixel noise.
ImageRgb RenderAugmentedEmotionCrop(Emotion emotion,
                                    const EmotionRecognizerOptions& options,
                                    Rng* rng);

}  // namespace dievent

#endif  // DIEVENT_ML_EMOTION_RECOGNIZER_H_
