// Property sweeps over the NN substrate: gradient correctness across
// architectures and loss types, optimizer convergence across seeds, and
// serialization round-trips for random networks.

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "nn/gradcheck.h"
#include "nn/kernels/kernels.h"
#include "nn/losses.h"
#include "nn/serialize.h"
#include "nn/sequential.h"

namespace targad {
namespace nn {
namespace {

Matrix RandomBatch(size_t rows, size_t cols, uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.Uniform(-scale, scale);
  return m;
}

// Architecture sweep: (depth, width) combinations; each is gradient-checked
// against three different loss heads.
struct ArchParam {
  std::vector<size_t> sizes;
  Activation hidden;
};

class ArchGradCheckTest : public ::testing::TestWithParam<ArchParam> {};

TEST_P(ArchGradCheckTest, SoftCrossEntropyGradients) {
  const ArchParam& param = GetParam();
  Rng rng(17);
  Sequential net =
      Sequential::MakeMlp(param.sizes, param.hidden, Activation::kNone, &rng);
  Matrix x = RandomBatch(6, param.sizes.front(), 18);
  const size_t out_dim = param.sizes.back();
  Matrix targets(6, out_dim, 1.0 / static_cast<double>(out_dim));
  auto loss_fn = [&](const Matrix& out) {
    return WeightedSoftCrossEntropy(out, targets, {}, 6.0);
  };
  EXPECT_LT(MaxParamGradError(&net, x, loss_fn), 1e-5);
}

TEST_P(ArchGradCheckTest, EntropyGradients) {
  const ArchParam& param = GetParam();
  Rng rng(19);
  Sequential net =
      Sequential::MakeMlp(param.sizes, param.hidden, Activation::kNone, &rng);
  Matrix x = RandomBatch(5, param.sizes.front(), 20);
  auto loss_fn = [](const Matrix& out) { return SoftmaxEntropy(out, 5.0); };
  // Slightly looser tolerance: LeakyReLU kinks add finite-difference noise.
  EXPECT_LT(MaxParamGradError(&net, x, loss_fn), 2e-4);
}

TEST_P(ArchGradCheckTest, InverseErrorGradients) {
  const ArchParam& param = GetParam();
  Rng rng(21);
  Sequential net =
      Sequential::MakeMlp(param.sizes, param.hidden, Activation::kSigmoid, &rng);
  Matrix x = RandomBatch(4, param.sizes.front(), 22);
  Matrix target = RandomBatch(4, param.sizes.back(), 23, 0.5);
  auto loss_fn = [&](const Matrix& out) {
    return InverseErrorLoss(out, target);
  };
  EXPECT_LT(MaxParamGradError(&net, x, loss_fn), 2e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, ArchGradCheckTest,
    ::testing::Values(ArchParam{{3, 4}, Activation::kReLU},            // Linear head.
                      ArchParam{{5, 8, 3}, Activation::kReLU},         // 1 hidden.
                      ArchParam{{4, 8, 6, 3}, Activation::kTanh},      // 2 hidden.
                      ArchParam{{6, 10, 8, 6, 4}, Activation::kLeakyReLU},
                      ArchParam{{8, 4, 2}, Activation::kSigmoid}));

// Serialization property: any random network round-trips to identical
// forward outputs through WriteParams/ReadParams.
class SerializePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializePropertyTest, RandomNetworksRoundTrip) {
  Rng seed_rng(GetParam());
  std::vector<size_t> sizes{2 + seed_rng.UniformInt(6)};
  const size_t depth = 1 + seed_rng.UniformInt(3);
  for (size_t d = 0; d < depth; ++d) sizes.push_back(2 + seed_rng.UniformInt(8));
  Rng r1(GetParam() * 3 + 1), r2(GetParam() * 7 + 5);
  Sequential a =
      Sequential::MakeMlp(sizes, Activation::kReLU, Activation::kNone, &r1);
  Sequential b =
      Sequential::MakeMlp(sizes, Activation::kReLU, Activation::kNone, &r2);

  std::stringstream stream;
  ASSERT_TRUE(WriteParams(stream, a).ok());
  ASSERT_TRUE(ReadParams(stream, &b).ok());

  Matrix x = RandomBatch(3, sizes.front(), GetParam() + 99);
  Matrix ya = a.Forward(x);
  Matrix yb = b.Forward(x);
  for (size_t i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya.data()[i], yb.data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Loss identities that must hold for arbitrary logits.
class LossIdentityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LossIdentityTest, MspEqualsExpNegativeAllDimsGap) {
  // p_max = exp(-(lse - z_max)): the identity that motivated restricting
  // the ED strategy to the target block (core/ood.h).
  Matrix logits = RandomBatch(4, 6, GetParam(), 3.0);
  const Matrix p = SoftmaxRows(logits);
  const auto lse = LogSumExpRows(logits, 0, 6);
  for (size_t i = 0; i < 4; ++i) {
    double zmax = logits.At(i, 0), pmax = p.At(i, 0);
    for (size_t j = 1; j < 6; ++j) {
      zmax = std::max(zmax, logits.At(i, j));
      pmax = std::max(pmax, p.At(i, j));
    }
    EXPECT_NEAR(pmax, std::exp(-(lse[i] - zmax)), 1e-12);
  }
}

TEST_P(LossIdentityTest, CrossEntropyDecomposesAsLseMinusDot) {
  // For any soft target t: CE = lse(z) - t.z (when sum t = 1).
  Matrix logits = RandomBatch(3, 5, GetParam() + 50, 2.0);
  Rng rng(GetParam() + 51);
  Matrix targets(3, 5, 0.0);
  for (size_t i = 0; i < 3; ++i) {
    double total = 0.0;
    for (size_t j = 0; j < 5; ++j) {
      targets.At(i, j) = rng.Uniform();
      total += targets.At(i, j);
    }
    for (size_t j = 0; j < 5; ++j) targets.At(i, j) /= total;
  }
  const LossResult ce = WeightedSoftCrossEntropy(logits, targets, {}, 3.0);
  const auto lse = LogSumExpRows(logits, 0, 5);
  double manual = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    double dot = 0.0;
    for (size_t j = 0; j < 5; ++j) dot += targets.At(i, j) * logits.At(i, j);
    manual += lse[i] - dot;
  }
  EXPECT_NEAR(ce.loss, manual / 3.0, 1e-9);
}

TEST_P(LossIdentityTest, EntropyGradSumsToZeroPerRow) {
  // Softmax-entropy gradients live in the simplex tangent space: each
  // row's gradient entries sum to zero.
  Matrix logits = RandomBatch(4, 5, GetParam() + 80, 2.5);
  const LossResult re = SoftmaxEntropy(logits, 4.0);
  for (size_t i = 0; i < 4; ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < 5; ++j) row_sum += re.grad.At(i, j);
    EXPECT_NEAR(row_sum, 0.0, 1e-12);
  }
}

TEST_P(LossIdentityTest, CrossEntropyGradSumsToZeroPerRow) {
  Matrix logits = RandomBatch(4, 5, GetParam() + 90, 2.5);
  Matrix targets(4, 5, 0.2);  // Uniform soft target sums to 1.
  const LossResult ce = WeightedSoftCrossEntropy(logits, targets, {}, 4.0);
  for (size_t i = 0; i < 4; ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < 5; ++j) row_sum += ce.grad.At(i, j);
    EXPECT_NEAR(row_sum, 0.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossIdentityTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// Backend sweep: analytic gradients stay correct AND the double
// backward-pass bits are invariant across backends — the kernel-dispatch
// half of the determinism contract that training_bitexact_test pins
// end-to-end.
class KernelConfigGradCheckTest
    : public ::testing::TestWithParam<kernels::Backend> {
 public:
  void SetUp() override {
    saved_backend_ = kernels::ActiveBackend();
    if (!kernels::SetBackendForTest(GetParam())) {
      GTEST_SKIP() << "backend " << kernels::BackendName(GetParam())
                   << " not available in this build/CPU";
    }
  }
  void TearDown() override { kernels::SetBackendForTest(saved_backend_); }

 private:
  kernels::Backend saved_backend_ = kernels::Backend::kScalar;
};

// One backward pass over a fixed net/batch; returns every parameter
// gradient, flattened. `params_only` takes Sequential::BackwardParams.
std::vector<double> BackwardGradProbe(bool params_only = false) {
  Rng rng(29);
  Sequential net = Sequential::MakeMlp({6, 9, 5, 4}, Activation::kLeakyReLU,
                                       Activation::kNone, &rng);
  Matrix x = RandomBatch(7, 6, 30);
  Matrix targets(7, 4, 0.25);
  net.ZeroGrads();
  Matrix out = net.Forward(x);
  const LossResult ce = WeightedSoftCrossEntropy(out, targets, {}, 7.0);
  if (params_only) {
    net.BackwardParams(ce.grad);
  } else {
    net.Backward(ce.grad);
  }
  std::vector<double> flat = {ce.loss};
  for (Matrix* g : net.Grads()) {
    flat.insert(flat.end(), g->data().begin(), g->data().end());
  }
  return flat;
}

TEST_P(KernelConfigGradCheckTest, GradCheckPassesUnderConfig) {
  Rng rng(31);
  Sequential net = Sequential::MakeMlp({5, 8, 4}, Activation::kReLU,
                                       Activation::kNone, &rng);
  Matrix x = RandomBatch(6, 5, 32);
  Matrix targets(6, 4, 0.25);
  auto loss_fn = [&](const Matrix& out) {
    return WeightedSoftCrossEntropy(out, targets, {}, 6.0);
  };
  EXPECT_LT(MaxParamGradError(&net, x, loss_fn), 1e-5);
}

TEST_P(KernelConfigGradCheckTest, DoubleBackwardBitsInvariant) {
  const std::vector<double> probe = BackwardGradProbe();
  const std::vector<double> params_only = BackwardGradProbe(true);

  // Reference: scalar backend.
  ASSERT_TRUE(kernels::SetBackendForTest(kernels::Backend::kScalar));
  const std::vector<double> reference = BackwardGradProbe();
  kernels::SetBackendForTest(GetParam());

  ASSERT_EQ(probe.size(), reference.size());
  ASSERT_EQ(params_only.size(), reference.size());
  for (size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(probe[i]),
              std::bit_cast<uint64_t>(reference[i]))
        << "gradient element " << i << " drifted under backend "
        << kernels::BackendName(GetParam());
    EXPECT_EQ(std::bit_cast<uint64_t>(params_only[i]),
              std::bit_cast<uint64_t>(reference[i]))
        << "BackwardParams gradient element " << i << " drifted under backend "
        << kernels::BackendName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, KernelConfigGradCheckTest,
    ::testing::Values(kernels::Backend::kScalar, kernels::Backend::kAvx2),
    [](const auto& info) {
      return std::string(kernels::BackendName(info.param));
    });

}  // namespace
}  // namespace nn
}  // namespace targad
