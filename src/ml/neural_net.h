/// \file neural_net.h
/// A from-scratch feed-forward neural network — the paper's emotion
/// classifier backend ("neural network as a classifier").
///
/// Dense layers with leaky-ReLU hidden activations and a softmax output, trained
/// by minibatch Adam on cross-entropy loss with L2 weight decay. Deliberately
/// dependency-free; sized for the LBP feature vectors this project uses
/// (a few thousand inputs, tens of hidden units).

#ifndef DIEVENT_ML_NEURAL_NET_H_
#define DIEVENT_ML_NEURAL_NET_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace dievent {

/// One training example: feature vector plus class label.
struct TrainSample {
  std::vector<float> features;
  int label = 0;
};

/// Minibatch Adam settings. Train rejects batch_size < 1 and epochs < 0.
struct TrainOptions {
  int epochs = 30;
  int batch_size = 16;
  /// Adam step size; 1e-3..3e-3 suits the emotion net.
  double learning_rate = 2e-3;
  double adam_beta1 = 0.9;
  double adam_beta2 = 0.999;
  double adam_epsilon = 1e-8;
  double l2 = 1e-4;
  /// When positive, training stops early once epoch loss drops below this.
  double target_loss = 0.0;
  bool shuffle = true;
};

/// Progress snapshot handed to the caller after each epoch.
struct EpochStats {
  int epoch = 0;
  double mean_loss = 0.0;
  double accuracy = 0.0;
};

class NeuralNet {
 public:
  /// Reusable forward-pass workspace. Forward fills activations[0] with
  /// the input and activations[i+1] with layer i's output; after the
  /// first call the buffers are only resized, never reallocated, so the
  /// emotion hot loop (one Predict per face per frame) runs
  /// allocation-free. A scratch must not be shared across threads.
  struct ForwardScratch {
    std::vector<std::vector<float>> activations;
  };

  NeuralNet() = default;

  /// Builds a network with the given layer widths, e.g. {2124, 48, 7}.
  /// Weights use He initialization drawn from `rng`.
  static Result<NeuralNet> Create(const std::vector<int>& layer_sizes,
                                  Rng* rng);

  int InputSize() const { return layer_sizes_.empty() ? 0 : layer_sizes_[0]; }
  int OutputSize() const {
    return layer_sizes_.empty() ? 0 : layer_sizes_.back();
  }
  const std::vector<int>& layer_sizes() const { return layer_sizes_; }

  /// Forward pass: softmax class probabilities.
  std::vector<float> Predict(const std::vector<float>& input) const;

  /// As Predict, but reuses a caller-owned scratch; the returned
  /// reference aliases `scratch` and is valid until the next call.
  const std::vector<float>& Predict(const std::vector<float>& input,
                                    ForwardScratch* scratch) const;

  /// Argmax class of Predict().
  int Classify(const std::vector<float>& input) const;

  /// Trains in place. Returns per-epoch statistics. Each minibatch runs
  /// the per-sample forward and backward passes, one gradient GEMM per
  /// layer and one Adam step; the weights are bit-identical to a
  /// per-sample accumulate-then-update loop (DESIGN §13).
  Result<std::vector<EpochStats>> Train(
      const std::vector<TrainSample>& samples, const TrainOptions& options,
      Rng* rng);

  /// Fraction of samples classified correctly.
  double Evaluate(const std::vector<TrainSample>& samples) const;

  /// Binary serialization (magic + version + shapes + weights).
  Status Save(const std::string& path) const;
  static Result<NeuralNet> Load(const std::string& path);

 private:
  struct Layer {
    int in = 0;
    int out = 0;
    std::vector<float> weights;  // out x in, row-major
    std::vector<float> bias;     // out
  };

  /// Forward keeping every layer's activations (for backprop and for the
  /// scratch-based Predict). Resizes rather than reallocates.
  void Forward(const std::vector<float>& input, ForwardScratch* scratch) const;

  /// One dense layer: out = weights * prev + bias.
  static void MatVec(const Layer& layer, const float* prev, float* out);

  std::vector<int> layer_sizes_;
  std::vector<Layer> layers_;
};

}  // namespace dievent

#endif  // DIEVENT_ML_NEURAL_NET_H_
