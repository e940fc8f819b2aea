#include "nn/layers.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "nn/gradcheck.h"
#include "nn/losses.h"
#include "nn/sequential.h"

namespace targad {
namespace nn {
namespace {

Matrix RandomBatch(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.Uniform(-1.0, 1.0);
  return m;
}

TEST(LinearTest, ForwardComputesAffineMap) {
  Rng rng(1);
  Linear layer(2, 3, &rng);
  layer.weight() = Matrix(2, 3, {1, 2, 3, 4, 5, 6});
  layer.bias() = Matrix(1, 3, {0.1, 0.2, 0.3});
  Matrix x(1, 2, {1.0, 2.0});
  Matrix y = layer.Forward(x);
  EXPECT_NEAR(y.At(0, 0), 1 * 1 + 2 * 4 + 0.1, 1e-12);
  EXPECT_NEAR(y.At(0, 1), 1 * 2 + 2 * 5 + 0.2, 1e-12);
  EXPECT_NEAR(y.At(0, 2), 1 * 3 + 2 * 6 + 0.3, 1e-12);
}

TEST(LinearTest, BackwardShapes) {
  Rng rng(2);
  Linear layer(4, 2, &rng);
  Matrix x = RandomBatch(5, 4, 3);
  Matrix y = layer.Forward(x);
  Matrix grad_in = layer.Backward(Matrix(5, 2, 1.0));
  EXPECT_EQ(grad_in.rows(), 5u);
  EXPECT_EQ(grad_in.cols(), 4u);
  EXPECT_EQ(layer.Grads()[0]->rows(), 4u);
  EXPECT_EQ(layer.Grads()[0]->cols(), 2u);
}

TEST(ReLUTest, ForwardClampsNegatives) {
  ReLU relu;
  Matrix x(1, 4, {-1.0, 0.0, 0.5, 2.0});
  Matrix y = relu.Forward(x);
  EXPECT_DOUBLE_EQ(y.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(y.At(0, 2), 0.5);
  EXPECT_DOUBLE_EQ(y.At(0, 3), 2.0);
}

TEST(ReLUTest, BackwardMasksNegatives) {
  ReLU relu;
  Matrix x(1, 3, {-1.0, 1.0, 2.0});
  relu.Forward(x);
  Matrix g = relu.Backward(Matrix(1, 3, 5.0));
  EXPECT_DOUBLE_EQ(g.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.At(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(g.At(0, 2), 5.0);
}

TEST(LeakyReLUTest, NegativeSlopeApplied) {
  LeakyReLU leaky(0.1);
  Matrix x(1, 2, {-2.0, 3.0});
  Matrix y = leaky.Forward(x);
  EXPECT_NEAR(y.At(0, 0), -0.2, 1e-12);
  EXPECT_DOUBLE_EQ(y.At(0, 1), 3.0);
  Matrix g = leaky.Backward(Matrix(1, 2, 1.0));
  EXPECT_NEAR(g.At(0, 0), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(g.At(0, 1), 1.0);
}

TEST(SigmoidTest, KnownValuesAndRange) {
  Sigmoid sig;
  Matrix x(1, 3, {0.0, 100.0, -100.0});
  Matrix y = sig.Forward(x);
  EXPECT_NEAR(y.At(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(y.At(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(y.At(0, 2), 0.0, 1e-12);
}

TEST(TanhTest, KnownValues) {
  Tanh tanh_layer;
  Matrix x(1, 2, {0.0, 1.0});
  Matrix y = tanh_layer.Forward(x);
  EXPECT_NEAR(y.At(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(y.At(0, 1), std::tanh(1.0), 1e-12);
}

// Gradient checks: every layer type inside a small network, against an MSE
// objective, must match finite differences.
class LayerGradCheckTest : public ::testing::TestWithParam<Activation> {};

TEST_P(LayerGradCheckTest, ParamGradsMatchFiniteDifferences) {
  Rng rng(7);
  Sequential net =
      Sequential::MakeMlp({4, 6, 3}, GetParam(), Activation::kNone, &rng);
  Matrix x = RandomBatch(5, 4, 8);
  Matrix target = RandomBatch(5, 3, 9);
  auto loss_fn = [&target](const Matrix& out) { return MseLoss(out, target); };
  EXPECT_LT(MaxParamGradError(&net, x, loss_fn), 1e-5);
}

TEST_P(LayerGradCheckTest, InputGradsMatchFiniteDifferences) {
  Rng rng(11);
  Sequential net =
      Sequential::MakeMlp({3, 5, 2}, GetParam(), Activation::kNone, &rng);
  Matrix x = RandomBatch(4, 3, 12);
  Matrix target = RandomBatch(4, 2, 13);
  auto loss_fn = [&target](const Matrix& out) { return MseLoss(out, target); };
  EXPECT_LT(MaxInputGradError(&net, x, loss_fn), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Activations, LayerGradCheckTest,
                         ::testing::Values(Activation::kReLU,
                                           Activation::kLeakyReLU,
                                           Activation::kSigmoid,
                                           Activation::kTanh));

TEST(LayerGradCheckTest, SigmoidOutputLayerGradients) {
  Rng rng(21);
  Sequential net = Sequential::MakeMlp({4, 8, 4}, Activation::kReLU,
                                       Activation::kSigmoid, &rng);
  Matrix x = RandomBatch(6, 4, 22);
  Matrix target = RandomBatch(6, 4, 23);
  auto loss_fn = [&target](const Matrix& out) { return MseLoss(out, target); };
  EXPECT_LT(MaxParamGradError(&net, x, loss_fn), 1e-5);
}

TEST(LayerTest, ZeroGradsClearsAccumulation) {
  Rng rng(31);
  Linear layer(2, 2, &rng);
  Matrix x = RandomBatch(3, 2, 32);
  layer.Forward(x);
  layer.Backward(Matrix(3, 2, 1.0));
  EXPECT_GT(layer.Grads()[0]->SquaredNorm(), 0.0);
  layer.ZeroGrads();
  EXPECT_DOUBLE_EQ(layer.Grads()[0]->SquaredNorm(), 0.0);
  EXPECT_DOUBLE_EQ(layer.Grads()[1]->SquaredNorm(), 0.0);
}

TEST(LayerTest, BackwardAccumulatesAcrossCalls) {
  Rng rng(41);
  Linear layer(2, 2, &rng);
  Matrix x = RandomBatch(3, 2, 42);
  layer.Forward(x);
  layer.Backward(Matrix(3, 2, 1.0));
  Matrix g1 = *layer.Grads()[0];
  layer.Forward(x);
  layer.Backward(Matrix(3, 2, 1.0));
  const Matrix& g2 = *layer.Grads()[0];
  for (size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(g2.data()[i], 2.0 * g1.data()[i], 1e-10);
  }
}

// Sequential::BackwardParams must leave every parameter gradient bit-equal
// to Backward's. Stacks 1 and 2 start with a layer that has no parameters
// (an activation, Dropout), so the pass stops at the second layer; two
// batches without ZeroGrads cover accumulation.
Sequential BackwardParamsStack(int stack) {
  Rng rng(51);
  if (stack == 0) {
    return Sequential::MakeMlp({5, 7, 4, 3}, Activation::kReLU,
                               Activation::kSigmoid, &rng);
  }
  Sequential net;
  if (stack == 1) net.Add(std::make_unique<ReLU>());
  if (stack == 2) net.Add(std::make_unique<Dropout>(0.3, 52));
  net.Add(std::make_unique<Linear>(5, 6, &rng));
  net.Add(std::make_unique<LeakyReLU>());
  net.Add(std::make_unique<Dropout>(0.2, 53));
  net.Add(std::make_unique<Linear>(6, 3, &rng));
  return net;
}

class BackwardParamsTest : public ::testing::TestWithParam<int> {};

TEST_P(BackwardParamsTest, ParamGradsBitEqualToBackward) {
  Sequential full = BackwardParamsStack(GetParam());
  Sequential params_only = BackwardParamsStack(GetParam());
  for (uint64_t batch = 0; batch < 2; ++batch) {
    const Matrix x = RandomBatch(6, 5, 60 + batch);
    const Matrix g = RandomBatch(6, 3, 70 + batch);
    full.Forward(x);
    params_only.Forward(x);
    full.Backward(g);
    params_only.BackwardParams(g);
  }
  const std::vector<Matrix*> want = full.Grads();
  const std::vector<Matrix*> got = params_only.Grads();
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i]->size(), want[i]->size());
    for (size_t j = 0; j < got[i]->size(); ++j) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i]->data()[j]),
                std::bit_cast<uint64_t>(want[i]->data()[j]))
          << "grad " << i << " element " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Stacks, BackwardParamsTest, ::testing::Values(0, 1, 2));

// Counts the backward calls a stack makes into it; an identity layer.
class CallCounter : public Layer {
 public:
  CallCounter(bool has_params, int* backward, int* params_only)
      : has_params_(has_params), backward_(backward), params_only_(params_only) {}
  Matrix Forward(RowBlock x) override { return x.ToMatrix(); }
  Matrix Infer(RowBlock x) const override { return x.ToMatrix(); }
  Matrix Backward(const Matrix& grad_out) override {
    ++*backward_;
    return grad_out;
  }
  void BackwardParams(const Matrix& grad_out) override {
    (void)grad_out;
    ++*params_only_;
  }
  std::vector<Matrix*> Params() override {
    return has_params_ ? std::vector<Matrix*>{&p_} : std::vector<Matrix*>{};
  }
  std::vector<Matrix*> Grads() override {
    return has_params_ ? std::vector<Matrix*>{&g_} : std::vector<Matrix*>{};
  }
  std::string name() const override { return "CallCounter"; }

 private:
  bool has_params_;
  int* backward_;
  int* params_only_;
  Matrix p_{1, 1, 0.0}, g_{1, 1, 0.0};
};

TEST(BackwardParamsTest, StopsAtTheFirstLayerWithParameters) {
  // Layers bottom to top: no params, params, no params, params.
  int backward[4] = {0, 0, 0, 0};
  int params_only[4] = {0, 0, 0, 0};
  Sequential net;
  for (int i = 0; i < 4; ++i) {
    net.Add(std::make_unique<CallCounter>(i % 2 == 1, &backward[i],
                                          &params_only[i]));
  }
  net.Forward(Matrix(2, 3, 1.0));
  net.BackwardParams(Matrix(2, 3, 1.0));
  EXPECT_EQ(backward[3], 1);
  EXPECT_EQ(backward[2], 1);
  EXPECT_EQ(backward[1], 0);
  EXPECT_EQ(params_only[1], 1);
  EXPECT_EQ(backward[0] + params_only[0], 0);
  EXPECT_EQ(params_only[2] + params_only[3], 0);

  // A stack with no parameters at all runs nothing.
  int none_backward = 0, none_params_only = 0;
  Sequential activations;
  activations.Add(
      std::make_unique<CallCounter>(false, &none_backward, &none_params_only));
  activations.Add(std::make_unique<Tanh>());
  activations.Forward(Matrix(2, 3, 1.0));
  activations.BackwardParams(Matrix(2, 3, 1.0));
  EXPECT_EQ(none_backward + none_params_only, 0);
}

}  // namespace
}  // namespace nn
}  // namespace targad
