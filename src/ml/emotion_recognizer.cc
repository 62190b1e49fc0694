#include "ml/emotion_recognizer.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "image/resize.h"
#include "ml/lbp.h"
#include "render/face_renderer.h"

namespace dievent {

int EmotionRecognizerOptions::FeatureSize() const {
  return lbp_grid * lbp_grid * kUniformLbpBins;
}

ImageRgb RenderAugmentedEmotionCrop(Emotion emotion,
                                    const EmotionRecognizerOptions& options,
                                    Rng* rng) {
  double intensity = rng->Uniform(0.6, 1.0);
  double gx = rng->Uniform(-0.8, 0.8);
  double gy = rng->Uniform(-0.8, 0.8);
  Rgb marker{static_cast<uint8_t>(rng->NextBelow(256)),
             static_cast<uint8_t>(rng->NextBelow(256)),
             static_cast<uint8_t>(rng->NextBelow(256))};
  ImageRgb crop = RenderFaceCrop(options.crop_size, emotion, intensity, gx,
                                 gy, marker);
  if (options.train_noise_sigma > 0.0) {
    for (uint8_t& v : crop.data()) {
      double nv = v + rng->Gaussian(0.0, options.train_noise_sigma);
      v = static_cast<uint8_t>(std::clamp(nv, 0.0, 255.0));
    }
  }
  return crop;
}

namespace {

/// Workspace of one feature extraction plus forward pass: grayscale,
/// resize and LBP-code images, the feature vector, and the network's
/// activations. Capacity is reused across calls.
struct EmotionScratch {
  ImageU8 gray;
  ImageU8 resized;
  ImageU8 lbp_codes;
  std::vector<float> features;
  NeuralNet::ForwardScratch nn;
};

/// The classifier's input, for training and recognition alike:
/// Hellinger-transformed uniform-LBP grid features of the crop, resized to
/// crop_size first when needed. The Hellinger transform (square root of
/// each histogram bin) (a) tames the dominant flat-texture bin that
/// otherwise saturates the first layer and kills its ReLUs, and (b) leaves
/// every grid cell with unit L2 norm, a well-conditioned input scale.
/// Returns scratch->features.
const std::vector<float>& ExtractFeatures(
    const EmotionRecognizerOptions& options, const ImageRgb& face_crop,
    EmotionScratch* scratch) {
  // lint: hot-path-begin(emotion-features)
  ToGrayInto(face_crop, &scratch->gray);
  const ImageU8* gray = &scratch->gray;
  if (gray->width() != options.crop_size ||
      gray->height() != options.crop_size) {
    ResizeBilinearInto(*gray, options.crop_size, options.crop_size,
                       &scratch->resized);
    gray = &scratch->resized;
  }
  LbpGridFeaturesInto(*gray, options.lbp_grid, options.lbp_grid,
                      &scratch->lbp_codes, &scratch->features);
  for (float& v : scratch->features) v = std::sqrt(v);
  return scratch->features;
  // lint: hot-path-end
}

std::vector<TrainSample> RenderDataset(
    const EmotionRecognizerOptions& options, int samples_per_class,
    Rng* rng) {
  std::vector<TrainSample> samples;
  samples.reserve(static_cast<size_t>(samples_per_class) * kNumEmotions);
  EmotionScratch scratch;
  for (Emotion e : kAllEmotions) {
    for (int s = 0; s < samples_per_class; ++s) {
      ImageRgb crop = RenderAugmentedEmotionCrop(e, options, rng);
      TrainSample sample;
      sample.features = ExtractFeatures(options, crop, &scratch);
      sample.label = static_cast<int>(e);
      samples.push_back(std::move(sample));
    }
  }
  return samples;
}

}  // namespace

Result<EmotionRecognizer> EmotionRecognizer::Train(
    const EmotionRecognizerOptions& options, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (options.crop_size < 16) {
    return Status::InvalidArgument("crop_size must be >= 16");
  }
  if (options.crop_size / options.lbp_grid < 3) {
    return Status::InvalidArgument(
        "lbp cells must be at least 3 pixels wide");
  }

  DIEVENT_ASSIGN_OR_RETURN(
      NeuralNet net,
      NeuralNet::Create(
          {options.FeatureSize(), options.hidden_units, kNumEmotions},
          rng));
  std::vector<TrainSample> samples =
      RenderDataset(options, options.samples_per_class, rng);

  EmotionRecognizer rec(options, std::move(net));
  DIEVENT_ASSIGN_OR_RETURN(rec.history_,
                           rec.net_.Train(samples, options.train, rng));
  return rec;
}

Result<EmotionRecognizer> EmotionRecognizer::FromNetwork(
    const EmotionRecognizerOptions& options, NeuralNet net) {
  if (net.InputSize() != options.FeatureSize() ||
      net.OutputSize() != kNumEmotions) {
    return Status::InvalidArgument(StrFormat(
        "network shape %d->%d does not match options (%d->%d)",
        net.InputSize(), net.OutputSize(), options.FeatureSize(),
        kNumEmotions));
  }
  return EmotionRecognizer(options, std::move(net));
}

EmotionPrediction EmotionRecognizer::Recognize(
    const ImageRgb& face_crop) const {
  // Recognize is const and the pipelined executor calls it concurrently
  // from pool workers, so the workspace cannot live on the recognizer.
  thread_local EmotionScratch scratch;
  EmotionPrediction pred;
  pred.class_probabilities =
      net_.Predict(ExtractFeatures(options_, face_crop, &scratch),
                   &scratch.nn);
  auto it = std::max_element(pred.class_probabilities.begin(),
                             pred.class_probabilities.end());
  pred.emotion = static_cast<Emotion>(
      std::distance(pred.class_probabilities.begin(), it));
  pred.confidence = *it;
  return pred;
}

double EmotionRecognizer::EvaluateOnRendered(int samples_per_class,
                                             Rng* rng) const {
  int correct = 0, total = 0;
  for (Emotion e : kAllEmotions) {
    for (int s = 0; s < samples_per_class; ++s) {
      ImageRgb crop = RenderAugmentedEmotionCrop(e, options_, rng);
      if (Recognize(crop).emotion == e) ++correct;
      ++total;
    }
  }
  return total > 0 ? static_cast<double>(correct) / total : 0.0;
}

std::vector<std::vector<double>> EmotionRecognizer::ConfusionOnRendered(
    int samples_per_class, Rng* rng) const {
  std::vector<std::vector<double>> confusion(
      kNumEmotions, std::vector<double>(kNumEmotions, 0.0));
  for (Emotion e : kAllEmotions) {
    for (int s = 0; s < samples_per_class; ++s) {
      ImageRgb crop = RenderAugmentedEmotionCrop(e, options_, rng);
      EmotionPrediction p = Recognize(crop);
      confusion[static_cast<int>(e)][static_cast<int>(p.emotion)] += 1.0;
    }
  }
  for (auto& row : confusion) {
    double total = 0.0;
    for (double v : row) total += v;
    if (total > 0) {
      for (double& v : row) v /= total;
    }
  }
  return confusion;
}

}  // namespace dievent
