#include "ml/neural_net.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "common/simd.h"

namespace dievent {
namespace {

/// Two-ring XOR-ish dataset: class is the XOR of sign bits.
std::vector<TrainSample> XorData(int n, Rng* rng) {
  std::vector<TrainSample> out;
  for (int i = 0; i < n; ++i) {
    float x = static_cast<float>(rng->Uniform(-1, 1));
    float y = static_cast<float>(rng->Uniform(-1, 1));
    TrainSample s;
    s.features = {x, y};
    s.label = ((x > 0) != (y > 0)) ? 1 : 0;
    out.push_back(std::move(s));
  }
  return out;
}

TEST(NeuralNet, CreateValidates) {
  Rng rng(1);
  EXPECT_FALSE(NeuralNet::Create({5}, &rng).ok());
  EXPECT_FALSE(NeuralNet::Create({5, 0, 2}, &rng).ok());
  EXPECT_FALSE(NeuralNet::Create({5, 3}, nullptr).ok());
  auto net = NeuralNet::Create({5, 3, 2}, &rng);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net.value().InputSize(), 5);
  EXPECT_EQ(net.value().OutputSize(), 2);
}

TEST(NeuralNet, PredictIsSoftmaxDistribution) {
  Rng rng(2);
  auto net = NeuralNet::Create({4, 8, 3}, &rng);
  ASSERT_TRUE(net.ok());
  auto probs = net.value().Predict({0.1f, -0.2f, 0.3f, 0.4f});
  ASSERT_EQ(probs.size(), 3u);
  float total = 0;
  for (float p : probs) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
    total += p;
  }
  EXPECT_NEAR(total, 1.0f, 1e-5);
}

TEST(NeuralNet, LearnsXor) {
  Rng rng(3);
  auto net = NeuralNet::Create({2, 16, 2}, &rng);
  ASSERT_TRUE(net.ok());
  auto train = XorData(400, &rng);
  TrainOptions opt;
  opt.epochs = 120;
  opt.learning_rate = 0.1;
  auto history = net.value().Train(train, opt, &rng);
  ASSERT_TRUE(history.ok()) << history.status();
  auto test = XorData(200, &rng);
  EXPECT_GT(net.value().Evaluate(test), 0.93);
  // Loss decreased over training.
  EXPECT_LT(history.value().back().mean_loss,
            history.value().front().mean_loss);
}

TEST(NeuralNet, TrainValidatesInputs) {
  Rng rng(4);
  auto net = NeuralNet::Create({2, 4, 2}, &rng);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net.value().Train({}, {}, &rng).status().code(),
            StatusCode::kInvalidArgument);
  TrainSample bad_features;
  bad_features.features = {1.0f, 2.0f, 3.0f};
  bad_features.label = 0;
  EXPECT_FALSE(net.value().Train({bad_features}, {}, &rng).ok());
  TrainSample bad_label;
  bad_label.features = {1.0f, 2.0f};
  bad_label.label = 7;
  EXPECT_FALSE(net.value().Train({bad_label}, {}, &rng).ok());

  // A batch size below 1 never advances the batch loop (and a negative
  // one wraps its index); negative epochs are meaningless. All are
  // rejected up front.
  TrainSample good;
  good.features = {1.0f, 2.0f};
  good.label = 1;
  for (int batch_size : {0, -1}) {
    TrainOptions opt;
    opt.batch_size = batch_size;
    EXPECT_EQ(net.value().Train({good}, opt, &rng).status().code(),
              StatusCode::kInvalidArgument)
        << "batch_size=" << batch_size;
  }
  TrainOptions negative_epochs;
  negative_epochs.epochs = -1;
  EXPECT_EQ(net.value().Train({good}, negative_epochs, &rng).status().code(),
            StatusCode::kInvalidArgument);
  TrainOptions no_epochs;
  no_epochs.epochs = 0;
  auto none = net.value().Train({good}, no_epochs, &rng);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none.value().empty());
}

TEST(NeuralNet, TargetLossStopsEarly) {
  Rng rng(5);
  auto net = NeuralNet::Create({2, 16, 2}, &rng);
  ASSERT_TRUE(net.ok());
  auto train = XorData(300, &rng);
  TrainOptions opt;
  opt.epochs = 500;
  opt.learning_rate = 0.1;
  opt.target_loss = 0.3;
  auto history = net.value().Train(train, opt, &rng);
  ASSERT_TRUE(history.ok());
  EXPECT_LT(history.value().size(), 500u);
  EXPECT_LT(history.value().back().mean_loss, 0.3);
}

TEST(NeuralNet, DeterministicGivenSeed) {
  auto run = [] {
    Rng rng(42);
    auto net = NeuralNet::Create({2, 8, 2}, &rng);
    auto train = XorData(100, &rng);
    TrainOptions opt;
    opt.epochs = 5;
    (void)net.value().Train(train, opt, &rng);
    return net.value().Predict({0.5f, -0.5f});
  };
  auto a = run();
  auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(NeuralNet, SaveLoadRoundTrip) {
  Rng rng(6);
  auto net = NeuralNet::Create({3, 5, 2}, &rng);
  ASSERT_TRUE(net.ok());
  std::string path = testing::TempDir() + "/net.bin";
  ASSERT_TRUE(net.value().Save(path).ok());
  auto loaded = NeuralNet::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::vector<float> in = {0.3f, -0.7f, 1.1f};
  auto pa = net.value().Predict(in);
  auto pb = loaded.value().Predict(in);
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_FLOAT_EQ(pa[i], pb[i]);
}

TEST(NeuralNet, LoadRejectsGarbage) {
  std::string path = testing::TempDir() + "/garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a network";
  }
  EXPECT_EQ(NeuralNet::Load(path).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(NeuralNet::Load("/no/such/file").status().code(),
            StatusCode::kIoError);
}

TEST(NeuralNet, LoadRejectsHeaderLargerThanFile) {
  // Headers whose layer sizes pass the per-size bound but imply far more
  // weights than the file holds: {2^22, 2^22} would need 64 TiB and
  // {2^22, 1024} 16 GiB. Load must report corruption without trying to
  // allocate them.
  const std::vector<std::vector<uint32_t>> headers = {
      {0x444E4E31, 2, 4194304, 4194304},
      {0x444E4E31, 2, 4194304, 1024},
      {0x444E4E31, 3, 3, 5, 2},  // a small net missing its last float
  };
  for (size_t h = 0; h < headers.size(); ++h) {
    std::string path =
        testing::TempDir() + "/big_header" + std::to_string(h) + ".bin";
    {
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(headers[h].data()),
                static_cast<std::streamsize>(headers[h].size() *
                                             sizeof(uint32_t)));
      if (h == 2) {
        // (3*5 + 5) + (5*2 + 2) = 32 floats are due; write 31.
        std::vector<float> payload(31, 0.5f);
        out.write(reinterpret_cast<const char*>(payload.data()),
                  static_cast<std::streamsize>(payload.size() *
                                               sizeof(float)));
      }
    }
    EXPECT_EQ(NeuralNet::Load(path).status().code(), StatusCode::kCorruption)
        << "header " << h;
  }
}

TEST(NeuralNet, ClassifyReturnsArgmax) {
  Rng rng(7);
  auto net = NeuralNet::Create({2, 4, 3}, &rng);
  ASSERT_TRUE(net.ok());
  std::vector<float> in = {1.0f, -1.0f};
  auto probs = net.value().Predict(in);
  int cls = net.value().Classify(in);
  for (float p : probs) EXPECT_LE(p, probs[cls]);
}

// --- Training oracle -------------------------------------------------------
//
// A reference trainer kept as the per-sample accumulate-then-update loop
// that NeuralNet::Train ran before it batched its gradients: every sample
// adds its weight gradient into the accumulators (skipping zero deltas),
// then one Adam update per minibatch. It runs on plain arrays read back
// through Save, with the scalar matvec, and Train must reproduce its
// weights to the last bit.

/// A network as plain arrays: weights[l] is out x in row-major.
struct PlainNet {
  std::vector<int> sizes;
  std::vector<std::vector<float>> weights, bias;
};

PlainNet ReadBack(const NeuralNet& net, const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(net.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  auto read_u32 = [&in]() {
    uint32_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  PlainNet plain;
  EXPECT_EQ(read_u32(), 0x444E4E31u);
  const uint32_t n = read_u32();
  for (uint32_t i = 0; i < n; ++i) {
    plain.sizes.push_back(static_cast<int>(read_u32()));
  }
  for (uint32_t l = 0; l + 1 < n; ++l) {
    const size_t in_n = plain.sizes[l], out_n = plain.sizes[l + 1];
    std::vector<float> w(in_n * out_n), b(out_n);
    in.read(reinterpret_cast<char*>(w.data()),
            static_cast<std::streamsize>(w.size() * sizeof(float)));
    in.read(reinterpret_cast<char*>(b.data()),
            static_cast<std::streamsize>(b.size() * sizeof(float)));
    plain.weights.push_back(std::move(w));
    plain.bias.push_back(std::move(b));
  }
  EXPECT_TRUE(in.good());
  return plain;
}

void ReferenceForward(const PlainNet& net, const std::vector<float>& input,
                      std::vector<std::vector<float>>* acts) {
  const size_t layers = net.weights.size();
  acts->assign(layers + 1, {});
  (*acts)[0] = input;
  for (size_t l = 0; l < layers; ++l) {
    std::vector<float>& cur = (*acts)[l + 1];
    cur.resize(net.sizes[l + 1]);
    simd::MatVecScalar(net.weights[l].data(), net.bias[l].data(),
                       (*acts)[l].data(), net.sizes[l], net.sizes[l + 1],
                       cur.data());
    if (l + 1 == layers) {
      float mx = *std::max_element(cur.begin(), cur.end());
      float sum = 0.0f;
      for (float& x : cur) {
        x = std::exp(x - mx);
        sum += x;
      }
      if (sum > 0) {
        for (float& x : cur) x /= sum;
      }
    } else {
      for (float& v : cur) {
        if (v < 0.0f) v *= 0.01f;
      }
    }
  }
}

void ReferenceTrain(PlainNet* net, const std::vector<TrainSample>& samples,
                    const TrainOptions& options, Rng* rng) {
  const size_t layers = net->weights.size();
  std::vector<std::vector<float>> mw(layers), vw(layers), mb(layers),
      vb(layers), gw(layers), gb(layers);
  for (size_t l = 0; l < layers; ++l) {
    mw[l].assign(net->weights[l].size(), 0.0f);
    vw[l].assign(net->weights[l].size(), 0.0f);
    gw[l].assign(net->weights[l].size(), 0.0f);
    mb[l].assign(net->bias[l].size(), 0.0f);
    vb[l].assign(net->bias[l].size(), 0.0f);
    gb[l].assign(net->bias[l].size(), 0.0f);
  }
  long long step = 0;
  std::vector<int> order(samples.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::vector<float>> acts, deltas(layers);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    if (options.shuffle) {
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng->NextBelow(i)]);
      }
    }
    for (size_t start = 0; start < order.size();
         start += options.batch_size) {
      const size_t end = std::min(
          order.size(), start + static_cast<size_t>(options.batch_size));
      const int batch = static_cast<int>(end - start);
      for (size_t l = 0; l < layers; ++l) {
        std::fill(gw[l].begin(), gw[l].end(), 0.0f);
        std::fill(gb[l].begin(), gb[l].end(), 0.0f);
      }
      for (size_t s = start; s < end; ++s) {
        const TrainSample& sample = samples[order[s]];
        ReferenceForward(*net, sample.features, &acts);
        deltas.back() = acts.back();
        deltas.back()[sample.label] -= 1.0f;
        for (size_t l = layers - 1; l > 0; --l) {
          const int in_n = net->sizes[l], out_n = net->sizes[l + 1];
          std::vector<float>& below = deltas[l - 1];
          below.assign(in_n, 0.0f);
          for (int o = 0; o < out_n; ++o) {
            const float d = deltas[l][o];
            if (d == 0.0f) continue;
            const float* wrow = &net->weights[l][static_cast<size_t>(o) * in_n];
            for (int i = 0; i < in_n; ++i) below[i] += wrow[i] * d;
          }
          for (int i = 0; i < in_n; ++i) {
            if (acts[l][i] < 0.0f) below[i] *= 0.01f;
          }
        }
        for (size_t l = 0; l < layers; ++l) {
          const int in_n = net->sizes[l], out_n = net->sizes[l + 1];
          for (int o = 0; o < out_n; ++o) {
            const float dv = deltas[l][o];
            if (dv == 0.0f) continue;
            float* grow = &gw[l][static_cast<size_t>(o) * in_n];
            for (int i = 0; i < in_n; ++i) grow[i] += dv * acts[l][i];
            gb[l][o] += dv;
          }
        }
      }
      ++step;
      const float lr = static_cast<float>(options.learning_rate);
      const float b1 = static_cast<float>(options.adam_beta1);
      const float b2 = static_cast<float>(options.adam_beta2);
      const float eps = static_cast<float>(options.adam_epsilon);
      const float l2 = static_cast<float>(options.l2);
      const float inv_batch = 1.0f / static_cast<float>(batch);
      const float corr1 = 1.0f - std::pow(b1, static_cast<float>(step));
      const float corr2 = 1.0f - std::pow(b2, static_cast<float>(step));
      const float alpha = lr * std::sqrt(corr2) / corr1;
      for (size_t l = 0; l < layers; ++l) {
        std::vector<float>& w = net->weights[l];
        for (size_t i = 0; i < w.size(); ++i) {
          float g = gw[l][i] * inv_batch + l2 * w[i];
          mw[l][i] = b1 * mw[l][i] + (1.0f - b1) * g;
          vw[l][i] = b2 * vw[l][i] + (1.0f - b2) * g * g;
          w[i] -= alpha * mw[l][i] / (std::sqrt(vw[l][i]) + eps);
        }
        std::vector<float>& bias = net->bias[l];
        for (size_t i = 0; i < bias.size(); ++i) {
          float g = gb[l][i] * inv_batch;
          mb[l][i] = b1 * mb[l][i] + (1.0f - b1) * g;
          vb[l][i] = b2 * vb[l][i] + (1.0f - b2) * g * g;
          bias[i] -= alpha * mb[l][i] / (std::sqrt(vb[l][i]) + eps);
        }
      }
    }
  }
}

/// LBP-histogram-like inputs: mostly exact zeros (the emotion net's
/// layer-0 inputs are ~64% zero), the rest of mixed sign so hidden units
/// take both leaky-ReLU branches.
std::vector<TrainSample> SparseData(int n, int in, int classes, Rng* rng) {
  std::vector<TrainSample> out(n);
  for (TrainSample& s : out) {
    s.features.resize(in);
    for (float& v : s.features) {
      v = rng->NextBool(0.64) ? 0.0f
                              : static_cast<float>(rng->Uniform(-0.5, 1.0));
    }
    s.label = static_cast<int>(rng->NextBelow(classes));
  }
  return out;
}

TEST(NeuralNet, TrainMatchesPerSampleReference) {
  const std::vector<std::vector<int>> shapes = {
      {2124, 48, 7}, {37, 13, 5}, {3, 1}};
  for (const std::vector<int>& shape : shapes) {
    Rng data_rng(11);
    // 23 samples: batches of 7 and 16 both end short.
    const std::vector<TrainSample> samples =
        SparseData(23, shape.front(), shape.back(), &data_rng);
    for (int batch_size : {1, 7, 16}) {
      for (bool shuffle : {true, false}) {
        Rng init_rng(5);
        auto net = NeuralNet::Create(shape, &init_rng);
        ASSERT_TRUE(net.ok());
        PlainNet reference = ReadBack(net.value(), "oracle_init.bin");

        TrainOptions opt;
        opt.epochs = 3;
        opt.batch_size = batch_size;
        opt.shuffle = shuffle;
        opt.learning_rate = 0.01;
        Rng train_rng(9), reference_rng(9);
        ASSERT_TRUE(net.value().Train(samples, opt, &train_rng).ok());
        ReferenceTrain(&reference, samples, opt, &reference_rng);

        const PlainNet trained = ReadBack(net.value(), "oracle_trained.bin");
        ASSERT_EQ(trained.weights.size(), reference.weights.size());
        for (size_t l = 0; l < trained.weights.size(); ++l) {
          SCOPED_TRACE(testing::Message()
                       << "shape[0]=" << shape.front() << " layer " << l
                       << " batch_size=" << batch_size
                       << " shuffle=" << shuffle);
          ASSERT_EQ(trained.weights[l].size(), reference.weights[l].size());
          EXPECT_EQ(0, std::memcmp(trained.weights[l].data(),
                                   reference.weights[l].data(),
                                   trained.weights[l].size() * sizeof(float)));
          EXPECT_EQ(0, std::memcmp(trained.bias[l].data(),
                                   reference.bias[l].data(),
                                   trained.bias[l].size() * sizeof(float)));
        }
      }
    }
  }
}

}  // namespace
}  // namespace dievent
