#include "nn/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "nn/sequential.h"

namespace targad {
namespace nn {
namespace {

// Minimizing f(w) = (w - 3)^2 must converge to 3.
TEST(AdamTest, ConvergesOnQuadratic) {
  Matrix w(1, 1, {0.0});
  Matrix g(1, 1, {0.0});
  Adam opt({&w}, {&g}, 0.05);
  for (int i = 0; i < 2000; ++i) {
    g.At(0, 0) = 2.0 * (w.At(0, 0) - 3.0);
    opt.Step();
  }
  EXPECT_NEAR(w.At(0, 0), 3.0, 1e-4);
}

TEST(AdamTest, FirstStepIsLearningRateSized) {
  // Adam's bias correction makes the very first update ~lr * sign(grad).
  Matrix w(1, 1, {0.0});
  Matrix g(1, 1, {5.0});
  Adam opt({&w}, {&g}, 0.01);
  opt.Step();
  EXPECT_NEAR(w.At(0, 0), -0.01, 1e-6);
}

TEST(AdamDeathTest, ShapeMismatchAborts) {
  Matrix w(1, 2);
  Matrix g(2, 1);
  EXPECT_DEATH({ Adam opt({&w}, {&g}, 0.1); }, "shape mismatch");
}

TEST(MlpTest, LearnsXor) {
  MlpConfig config;
  config.sizes = {2, 8, 2};
  config.learning_rate = 5e-2;
  config.seed = 3;
  Mlp mlp(config);
  Matrix x(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
  Matrix targets(4, 2, {1, 0, 0, 1, 0, 1, 1, 0});  // One-hot XOR.
  double loss = 0.0;
  for (int i = 0; i < 400; ++i) loss = mlp.TrainStepCrossEntropy(x, targets);
  EXPECT_LT(loss, 0.05);
  Matrix p = mlp.PredictProba(x);
  EXPECT_GT(p.At(0, 0), 0.5);
  EXPECT_GT(p.At(1, 1), 0.5);
  EXPECT_GT(p.At(2, 1), 0.5);
  EXPECT_GT(p.At(3, 0), 0.5);
}

TEST(MlpTest, LearnsLinearRegression) {
  MlpConfig config;
  config.sizes = {1, 1};
  config.learning_rate = 5e-2;
  config.seed = 4;
  Mlp mlp(config);
  // y = 2x + 1 on a few points.
  Matrix x(5, 1, {0.0, 0.25, 0.5, 0.75, 1.0});
  Matrix y(5, 1, {1.0, 1.5, 2.0, 2.5, 3.0});
  double loss = 1.0;
  for (int i = 0; i < 2000 && loss > 1e-6; ++i) loss = mlp.TrainStepMse(x, y);
  EXPECT_LT(loss, 1e-5);
}

TEST(SequentialTest, CopyParamsFromMakesNetsIdentical) {
  Rng r1(1), r2(2);
  Sequential a = Sequential::MakeMlp({3, 4, 2}, Activation::kReLU,
                                     Activation::kNone, &r1);
  Sequential b = Sequential::MakeMlp({3, 4, 2}, Activation::kReLU,
                                     Activation::kNone, &r2);
  Matrix x(2, 3, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6});
  auto squared_gap = [](const Matrix& p, const Matrix& q) {
    double sum = 0.0;
    for (size_t i = 0; i < p.size(); ++i) {
      const double d = p.data()[i] - q.data()[i];
      sum += d * d;
    }
    return sum;
  };
  Matrix ya = a.Forward(x);
  Matrix yb = b.Forward(x);
  EXPECT_GT(squared_gap(ya, yb), 1e-8);  // Different inits differ.
  b.CopyParamsFrom(a);
  Matrix yb2 = b.Forward(x);
  EXPECT_NEAR(squared_gap(ya, yb2), 0.0, 1e-20);
}

TEST(SequentialTest, NumParametersCountsAll) {
  Rng rng(5);
  Sequential net = Sequential::MakeMlp({3, 4, 2}, Activation::kReLU,
                                       Activation::kNone, &rng);
  // (3*4 + 4) + (4*2 + 2) = 26.
  EXPECT_EQ(net.NumParameters(), 26u);
}

TEST(SequentialDeathTest, MlpNeedsTwoSizes) {
  Rng rng(6);
  EXPECT_DEATH(
      { Sequential::MakeMlp({3}, Activation::kReLU, Activation::kNone, &rng); },
      "at least");
}

}  // namespace
}  // namespace nn
}  // namespace targad
