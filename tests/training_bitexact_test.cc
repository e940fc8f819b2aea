// Pins the double training path to golden bit patterns captured from the
// code BEFORE the kernel-layer refactor. Every value is compared through
// std::bit_cast<uint64_t> — not within a tolerance — so any change to
// accumulation order, expression shape, or multiply-add fusion on the
// double path (whose AVX2 kernels must round exactly as the scalar ones)
// fails here, on any backend.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "nn/kernels/kernels.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace targad {
namespace {

// Captured from the seed (pre-kernel-layer) tree: MLP probe below.
constexpr uint64_t kNetGolden[] = {
    0x3fcb027976e4eb14ull, 0x3fdc011f25a17a29ull, 0x3fe13cf497bb1ec5ull,
    0x3fde6f80ef0a6fddull, 0x3fe66a4ff86f0119ull, 0x3fdfa9904a8aa312ull,
    0x3fe569079bf0274dull, 0x40129ce28a9d826cull, 0xbfb9e6666a4436f5ull,
    0x3f6d79720c518c0dull, 0xbfe47dfe24ce0916ull, 0x3fdd9fa606422754ull,
    0x3fe6994035df23f7ull, 0xbff86c55b17fa1acull, 0xbfc7df441b9d5d9eull,
    0xbfcba46dd25ec691ull, 0xbfe4c8eb3f03eb84ull, 0x3feab3be00f96633ull,
    0xbfd70bfeef4c6fa2ull, 0xbffe3b668a7d21eaull, 0xbfb90d0ddfb9f6b1ull,
    0x3fb2d6e2c35f3493ull, 0x3fd09d2db14e3d96ull};

// Captured from the seed tree: full-pipeline scores probe below.
constexpr uint64_t kPipelineGolden[] = {
    0x3fd68982214d0e98ull, 0x3fd51e8744cf77caull, 0x3fd6114ab003b413ull,
    0x3fdeba5a2c9ea459ull, 0x3fd6511e52e35e31ull, 0x3fd57fad13a2e10aull,
    0x3fd5fe1e65558100ull, 0x3fdcecf6cc41d2c8ull, 0x3fd5996c622b44f7ull,
    0x3fd599a7aa66e2ffull, 0x3fd5f24334b79abfull, 0x3fdd3444fdf4943eull};

data::RawTable MakeTable(uint64_t seed, size_t normals) {
  Rng rng(seed);
  data::RawTable table;
  table.column_names = {"amount", "rate", "channel", "label"};
  for (size_t i = 0; i < normals; ++i) {
    const bool mode = rng.Bernoulli(0.5);
    char a[32], r[32];
    std::snprintf(a, sizeof a, "%.6f", rng.Normal(mode ? 20.0 : 60.0, 4.0));
    std::snprintf(r, sizeof r, "%.6f", rng.Normal(0.3, 0.05));
    table.rows.push_back({a, r, mode ? "web" : "pos", ""});
  }
  for (size_t i = 0; i < normals / 16 + 8; ++i) {
    char a[32], r[32];
    std::snprintf(a, sizeof a, "%.6f", rng.Normal(150.0, 5.0));
    std::snprintf(r, sizeof r, "%.6f", rng.Normal(0.9, 0.03));
    table.rows.push_back({a, r, "web", "fraud"});
  }
  return table;
}

void ExpectBitExact(const std::vector<double>& probe, const uint64_t* golden,
                    size_t golden_size) {
  ASSERT_EQ(probe.size(), golden_size);
  for (size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(probe[i]), golden[i])
        << "probe[" << i << "] = " << probe[i] << " drifted from the seed";
  }
}

// `params_only` trains through Sequential::BackwardParams, which skips the
// first layer's input gradient; the parameter bits must not move.
std::vector<double> RunMlpProbe(bool params_only = false) {
  Rng rng(42);
  nn::Sequential net = nn::Sequential::MakeMlp(
      {5, 8, 4, 3}, nn::Activation::kReLU, nn::Activation::kSigmoid, &rng);
  nn::Matrix x(16, 5);
  nn::Matrix y(16, 3);
  for (auto& v : x.data()) v = rng.Normal(0.0, 1.0);
  for (auto& v : y.data()) v = rng.Uniform();
  nn::Adam opt(net.Params(), net.Grads(), 0.01);
  double last_loss = 0.0;
  for (int step = 0; step < 30; ++step) {
    net.ZeroGrads();
    const nn::Matrix pred = net.Forward(x);
    const nn::LossResult loss = nn::MseLoss(pred, y);
    last_loss = loss.loss;
    if (params_only) {
      net.BackwardParams(loss.grad);
    } else {
      net.Backward(loss.grad);
    }
    opt.Step();
  }
  std::vector<double> probe = {last_loss};
  const nn::Matrix out = net.Infer(x);
  for (size_t i = 0; i < out.rows(); i += 5) probe.push_back(out.At(i, 0));
  for (nn::Matrix* p : net.Params()) {
    probe.push_back(p->data().front());
    probe.push_back(p->data().back());
    probe.push_back(p->Sum());
  }
  return probe;
}

std::vector<double> RunPipelineProbe() {
  core::PipelineConfig config;
  config.model.seed = 11;
  config.model.selection.k = 2;
  config.model.selection.autoencoder.epochs = 8;
  config.model.epochs = 10;
  auto trained = core::TargAdPipeline::Train(MakeTable(3, 160), config);
  EXPECT_TRUE(trained.ok()) << trained.status().ToString();
  if (!trained.ok()) return {};
  const data::RawTable test = MakeTable(4, 24);
  auto scores = trained.ValueOrDie().Score(test);
  EXPECT_TRUE(scores.ok()) << scores.status().ToString();
  if (!scores.ok()) return {};
  const std::vector<double>& s = scores.ValueOrDie();
  EXPECT_GE(s.size(), std::size(kPipelineGolden));
  if (s.size() < std::size(kPipelineGolden)) return {};
  return std::vector<double>(s.begin(),
                             s.begin() + std::size(kPipelineGolden));
}

TEST(TrainingBitExactTest, MlpTrainingLoopMatchesSeedBits) {
  ExpectBitExact(RunMlpProbe(), kNetGolden, std::size(kNetGolden));
}

TEST(TrainingBitExactTest, FullPipelineTrainingMatchesSeedBits) {
  ExpectBitExact(RunPipelineProbe(), kPipelineGolden,
                 std::size(kPipelineGolden));
}

// The SAME golden bits must come out on every backend available in the
// build: the scalar loops and the AVX2 double GEMMs, whose lanes each
// compute one element in the scalar order, unfused.
class TrainingBitExactSweepTest
    : public ::testing::TestWithParam<nn::kernels::Backend> {
 public:
  void SetUp() override {
    saved_backend_ = nn::kernels::ActiveBackend();
    if (!nn::kernels::SetBackendForTest(GetParam())) {
      GTEST_SKIP() << "backend " << nn::kernels::BackendName(GetParam())
                   << " not available in this build/CPU";
    }
  }
  void TearDown() override { nn::kernels::SetBackendForTest(saved_backend_); }

 private:
  nn::kernels::Backend saved_backend_ = nn::kernels::Backend::kScalar;
};

TEST_P(TrainingBitExactSweepTest, MlpGoldenBitsInvariant) {
  ExpectBitExact(RunMlpProbe(), kNetGolden, std::size(kNetGolden));
}

TEST_P(TrainingBitExactSweepTest, MlpGoldenBitsInvariantWithoutInputGrad) {
  ExpectBitExact(RunMlpProbe(/*params_only=*/true), kNetGolden,
                 std::size(kNetGolden));
}

TEST_P(TrainingBitExactSweepTest, PipelineGoldenBitsInvariant) {
  ExpectBitExact(RunPipelineProbe(), kPipelineGolden,
                 std::size(kPipelineGolden));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TrainingBitExactSweepTest,
    ::testing::Values(nn::kernels::Backend::kScalar,
                      nn::kernels::Backend::kAvx2),
    [](const auto& info) {
      return std::string(nn::kernels::BackendName(info.param));
    });

}  // namespace
}  // namespace targad
