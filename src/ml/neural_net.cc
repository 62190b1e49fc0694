#include "ml/neural_net.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <numeric>

#include "common/simd.h"
#include "common/strings.h"

namespace dievent {

namespace {

constexpr uint32_t kMagic = 0x444E4E31;  // "DNN1"

void Softmax(std::vector<float>* v) {
  // A zero-width output layer can't happen through NeuralNet::Create, but
  // Softmax must not dereference max_element on an empty range regardless.
  if (v->empty()) return;
  float mx = *std::max_element(v->begin(), v->end());
  float sum = 0.0f;
  for (float& x : *v) {
    x = std::exp(x - mx);
    sum += x;
  }
  if (sum > 0) {
    for (float& x : *v) x /= sum;
  }
}

}  // namespace

Result<NeuralNet> NeuralNet::Create(const std::vector<int>& layer_sizes,
                                    Rng* rng) {
  if (layer_sizes.size() < 2) {
    return Status::InvalidArgument("need at least input and output layers");
  }
  for (int s : layer_sizes) {
    if (s <= 0) return Status::InvalidArgument("layer sizes must be > 0");
  }
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  NeuralNet net;
  net.layer_sizes_ = layer_sizes;
  for (size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    Layer layer;
    layer.in = layer_sizes[i];
    layer.out = layer_sizes[i + 1];
    layer.weights.resize(static_cast<size_t>(layer.in) * layer.out);
    layer.bias.assign(layer.out, 0.0f);
    // He initialization for ReLU layers.
    double scale = std::sqrt(2.0 / layer.in);
    for (float& w : layer.weights) {
      w = static_cast<float>(rng->Gaussian(0.0, scale));
    }
    net.layers_.push_back(std::move(layer));
  }
  return net;
}

void NeuralNet::MatVec(const Layer& layer, const float* prev, float* out) {
  // The blocked kernel lives in common/simd.h (SSE2/NEON with a scalar
  // fallback). Its summation order is lane-partitioned — four interleaved
  // partial sums per row, combined in a fixed tree — so the vectorized and
  // scalar builds produce bit-identical activations.
  simd::MatVec(layer.weights.data(), layer.bias.data(), prev, layer.in,
               layer.out, out);
}

void NeuralNet::Forward(const std::vector<float>& input,
                        ForwardScratch* scratch) const {
  // lint: hot-path-begin(nn-forward)
  std::vector<std::vector<float>>& acts = scratch->activations;
  // Both resizes hit warmed-up scratch capacity from the second call on
  // (the network's shape is fixed), so steady state is allocation-free.
  acts.resize(layers_.size() + 1);  // lint: allow(hot-path-alloc)
  acts[0].assign(input.begin(), input.end());
  for (size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    const std::vector<float>& prev = acts[li];
    std::vector<float>& cur = acts[li + 1];
    // Same warmed-up-capacity argument as the resize above.
    cur.resize(layer.out);  // lint: allow(hot-path-alloc)
    MatVec(layer, prev.data(), cur.data());
    const bool last = (li + 1 == layers_.size());
    if (last) {
      Softmax(&cur);
    } else {
      // Leaky ReLU: the small negative slope keeps gradients alive even
      // after an aggressive update pushes a unit negative (plain ReLU
      // units die permanently under large steps on spiky features).
      for (float& v : cur) {
        if (v < 0.0f) v *= 0.01f;
      }
    }
  }
  // lint: hot-path-end
}

std::vector<float> NeuralNet::Predict(const std::vector<float>& input) const {
  ForwardScratch scratch;
  Forward(input, &scratch);
  return std::move(scratch.activations.back());
}

const std::vector<float>& NeuralNet::Predict(const std::vector<float>& input,
                                             ForwardScratch* scratch) const {
  Forward(input, scratch);
  return scratch->activations.back();
}

int NeuralNet::Classify(const std::vector<float>& input) const {
  std::vector<float> probs = Predict(input);
  return static_cast<int>(std::distance(
      probs.begin(), std::max_element(probs.begin(), probs.end())));
}

// Pinned to a 64-byte boundary. Training is the set-up cost of every
// full-vision run, and on x86-64 (GCC 12, Release) the epoch loop's speed
// swings by ~25% with the loops' offset within 64-byte fetch blocks. Unpinned,
// that offset moves whenever code linked ahead of this file changes size.
__attribute__((aligned(64))) Result<std::vector<EpochStats>> NeuralNet::Train(
    const std::vector<TrainSample>& samples, const TrainOptions& options,
    Rng* rng) {
  if (samples.empty()) {
    return Status::InvalidArgument("no training samples");
  }
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (options.batch_size < 1) {
    return Status::InvalidArgument(
        StrFormat("batch_size %d must be >= 1", options.batch_size));
  }
  if (options.epochs < 0) {
    return Status::InvalidArgument(
        StrFormat("epochs %d must be >= 0", options.epochs));
  }
  for (const TrainSample& s : samples) {
    if (static_cast<int>(s.features.size()) != InputSize()) {
      return Status::InvalidArgument(StrFormat(
          "sample feature size %zu != input size %d", s.features.size(),
          InputSize()));
    }
    if (s.label < 0 || s.label >= OutputSize()) {
      return Status::InvalidArgument(
          StrFormat("label %d outside [0, %d)", s.label, OutputSize()));
    }
  }

  const size_t num_layers = layers_.size();
  // Adam state mirroring weights and biases: first (m*) and second (v*)
  // moment estimates.
  std::vector<std::vector<float>> mw(num_layers), vw(num_layers);
  std::vector<std::vector<float>> mb(num_layers), vb(num_layers);
  // Gradients of the current minibatch; BatchGradient overwrites gw.
  std::vector<std::vector<float>> gw(num_layers), gb(num_layers);
  for (size_t li = 0; li < num_layers; ++li) {
    mw[li].assign(layers_[li].weights.size(), 0.0f);
    vw[li].assign(layers_[li].weights.size(), 0.0f);
    mb[li].assign(layers_[li].bias.size(), 0.0f);
    vb[li].assign(layers_[li].bias.size(), 0.0f);
    gw[li].assign(layers_[li].weights.size(), 0.0f);
    gb[li].assign(layers_[li].bias.size(), 0.0f);
  }
  long long adam_step = 0;
  simd::AdamStepParams adam;
  adam.l2 = static_cast<float>(options.l2);
  adam.b1 = static_cast<float>(options.adam_beta1);
  adam.b2 = static_cast<float>(options.adam_beta2);
  adam.eps = static_cast<float>(options.adam_epsilon);

  // Per-batch stash for the gradient GEMMs: each sample's layer inputs
  // (one row pointer per sample and layer) and output deltas (batch x out
  // per layer). Layer 0's inputs are the samples' own feature vectors;
  // deeper layers point into `batch_inputs`.
  const size_t max_batch =
      std::min(samples.size(), static_cast<size_t>(options.batch_size));
  std::vector<std::vector<float>> batch_inputs(num_layers);
  std::vector<std::vector<const float*>> input_rows(num_layers);
  std::vector<std::vector<float>> batch_deltas(num_layers);
  for (size_t li = 0; li < num_layers; ++li) {
    batch_deltas[li].assign(max_batch * layers_[li].out, 0.0f);
    input_rows[li].assign(max_batch, nullptr);
    if (li == 0) continue;  // set per sample
    const size_t in = static_cast<size_t>(layers_[li].in);
    batch_inputs[li].assign(max_batch * in, 0.0f);
    for (size_t b = 0; b < max_batch; ++b) {
      input_rows[li][b] = batch_inputs[li].data() + b * in;
    }
  }

  std::vector<int> order(samples.size());
  std::iota(order.begin(), order.end(), 0);

  std::vector<EpochStats> history;
  ForwardScratch scratch;
  std::vector<std::vector<float>>& acts = scratch.activations;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    if (options.shuffle) {
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng->NextBelow(i)]);
      }
    }
    double loss_sum = 0.0;
    int correct = 0;

    for (size_t start = 0; start < order.size(); start += max_batch) {
      const int batch = static_cast<int>(
          std::min(order.size(), start + max_batch) - start);

      for (int b = 0; b < batch; ++b) {
        const TrainSample& sample = samples[order[start + b]];
        Forward(sample.features, &scratch);
        const std::vector<float>& probs = acts.back();
        loss_sum += -std::log(std::max(1e-9f, probs[sample.label]));
        int pred = static_cast<int>(std::distance(
            probs.begin(), std::max_element(probs.begin(), probs.end())));
        if (pred == sample.label) ++correct;

        // Output delta: softmax + cross-entropy gives (p - y).
        float* out_delta =
            batch_deltas.back().data() +
            static_cast<size_t>(b) * layers_.back().out;
        std::copy(probs.begin(), probs.end(), out_delta);
        out_delta[sample.label] -= 1.0f;

        input_rows[0][b] = sample.features.data();
        // Backpropagate through hidden layers, stashing each one's input.
        for (size_t li = num_layers - 1; li > 0; --li) {
          const Layer& layer = layers_[li];
          const float* delta =
              batch_deltas[li].data() + static_cast<size_t>(b) * layer.out;
          float* below =
              batch_deltas[li - 1].data() + static_cast<size_t>(b) * layer.in;
          std::fill(below, below + layer.in, 0.0f);
          for (int o = 0; o < layer.out; ++o) {
            const float d = delta[o];
            if (d == 0.0f) continue;
            const float* wrow =
                &layer.weights[static_cast<size_t>(o) * layer.in];
            for (int i = 0; i < layer.in; ++i) below[i] += wrow[i] * d;
          }
          // Leaky-ReLU derivative of the hidden activation.
          const std::vector<float>& act = acts[li];
          for (int i = 0; i < layer.in; ++i) {
            if (act[i] < 0.0f) below[i] *= 0.01f;
          }
          std::copy(act.begin(), act.end(),
                    batch_inputs[li].data() +
                        static_cast<size_t>(b) * layer.in);
        }
      }

      // Gradients: one GEMM per layer for the weights, and for the biases
      // the deltas summed from +0 in sample order.
      for (size_t li = 0; li < num_layers; ++li) {
        const Layer& layer = layers_[li];
        const float* deltas = batch_deltas[li].data();
        simd::BatchGradient(input_rows[li].data(), deltas, batch, layer.in,
                            layer.out, gw[li].data());
        for (int o = 0; o < layer.out; ++o) {
          float sum = 0.0f;
          for (int b = 0; b < batch; ++b) {
            sum += deltas[static_cast<size_t>(b) * layer.out + o];
          }
          gb[li][o] = sum;
        }
      }

      // Adam with bias correction; gradients are averaged over the batch
      // and the weights (not the biases) carry L2 decay.
      ++adam_step;
      adam.grad_scale = 1.0f / static_cast<float>(batch);
      const float corr1 =
          1.0f - std::pow(adam.b1, static_cast<float>(adam_step));
      const float corr2 =
          1.0f - std::pow(adam.b2, static_cast<float>(adam_step));
      adam.alpha =
          static_cast<float>(options.learning_rate) * std::sqrt(corr2) / corr1;
      for (size_t li = 0; li < num_layers; ++li) {
        Layer& layer = layers_[li];
        adam.decay = true;
        simd::AdamStep(adam, gw[li].data(), layer.weights.size(),
                       layer.weights.data(), mw[li].data(), vw[li].data());
        adam.decay = false;
        simd::AdamStep(adam, gb[li].data(), layer.bias.size(),
                       layer.bias.data(), mb[li].data(), vb[li].data());
      }
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss = loss_sum / static_cast<double>(samples.size());
    stats.accuracy = static_cast<double>(correct) / samples.size();
    history.push_back(stats);
    if (options.target_loss > 0.0 && stats.mean_loss < options.target_loss) {
      break;
    }
  }
  return history;
}

double NeuralNet::Evaluate(const std::vector<TrainSample>& samples) const {
  if (samples.empty()) return 0.0;
  int correct = 0;
  ForwardScratch scratch;
  for (const TrainSample& s : samples) {
    const std::vector<float>& probs = Predict(s.features, &scratch);
    int pred = static_cast<int>(std::distance(
        probs.begin(), std::max_element(probs.begin(), probs.end())));
    if (pred == s.label) ++correct;
  }
  return static_cast<double>(correct) / samples.size();
}

Status NeuralNet::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  auto write_u32 = [&out](uint32_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  write_u32(kMagic);
  write_u32(static_cast<uint32_t>(layer_sizes_.size()));
  for (int s : layer_sizes_) write_u32(static_cast<uint32_t>(s));
  for (const Layer& layer : layers_) {
    out.write(reinterpret_cast<const char*>(layer.weights.data()),
              static_cast<std::streamsize>(layer.weights.size() *
                                           sizeof(float)));
    out.write(reinterpret_cast<const char*>(layer.bias.data()),
              static_cast<std::streamsize>(layer.bias.size() *
                                           sizeof(float)));
  }
  if (!out) return Status::IoError("short write: " + path);
  return Status::OK();
}

Result<NeuralNet> NeuralNet::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  auto read_u32 = [&in]() -> uint32_t {
    uint32_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  if (read_u32() != kMagic) {
    return Status::Corruption("bad neural-net file magic: " + path);
  }
  uint32_t num_sizes = read_u32();
  if (!in || num_sizes < 2 || num_sizes > 64) {
    return Status::Corruption("implausible layer count in " + path);
  }
  std::vector<int> sizes(num_sizes);
  for (uint32_t i = 0; i < num_sizes; ++i) {
    sizes[i] = static_cast<int>(read_u32());
    if (sizes[i] <= 0 || sizes[i] > (1 << 22)) {
      return Status::Corruption("implausible layer size in " + path);
    }
  }
  // A corrupt header can name layers far larger than the file; check the
  // implied payload against the bytes left before allocating any of it.
  uint64_t payload = 0;
  for (uint32_t i = 0; i + 1 < num_sizes; ++i) {
    const uint64_t in_n = static_cast<uint64_t>(sizes[i]);
    const uint64_t out_n = static_cast<uint64_t>(sizes[i + 1]);
    payload += (in_n * out_n + out_n) * sizeof(float);
  }
  const std::streamoff header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(header_end);
  if (!in || file_end < header_end ||
      static_cast<uint64_t>(file_end - header_end) < payload) {
    return Status::Corruption("truncated neural-net file: " + path);
  }
  Rng dummy(1);
  DIEVENT_ASSIGN_OR_RETURN(NeuralNet net, NeuralNet::Create(sizes, &dummy));
  for (Layer& layer : net.layers_) {
    in.read(reinterpret_cast<char*>(layer.weights.data()),
            static_cast<std::streamsize>(layer.weights.size() *
                                         sizeof(float)));
    in.read(reinterpret_cast<char*>(layer.bias.data()),
            static_cast<std::streamsize>(layer.bias.size() * sizeof(float)));
  }
  if (!in) return Status::Corruption("truncated neural-net file: " + path);
  return net;
}

}  // namespace dievent
