#include <cmath>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/sequential.h"

namespace targad {
namespace nn {
namespace {

TEST(DropoutTest, EvalModeIsIdentity) {
  Dropout dropout(0.5, /*seed=*/1);
  dropout.set_training(false);
  Matrix x(3, 4, 0.7);
  Matrix y = dropout.Forward(x);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(y.data()[i], x.data()[i]);
  }
  // And backward passes gradients through unchanged.
  Matrix g = dropout.Backward(Matrix(3, 4, 2.0));
  for (double v : g.data()) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(DropoutTest, TrainingDropsApproximatelyRateFraction) {
  Dropout dropout(0.3, /*seed=*/2);
  Matrix x(100, 100, 1.0);
  Matrix y = dropout.Forward(x);
  size_t zeros = 0;
  const double scale = 1.0 / 0.7;
  for (double v : y.data()) {
    if (v == 0.0) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, scale, 1e-12);  // Survivors are rescaled.
    }
  }
  const double drop_rate = static_cast<double>(zeros) / 10000.0;
  EXPECT_NEAR(drop_rate, 0.3, 0.02);
}

TEST(DropoutTest, ExpectationIsPreserved) {
  // Inverted dropout: E[output] == input.
  Dropout dropout(0.4, /*seed=*/3);
  Matrix x(200, 50, 1.0);
  Matrix y = dropout.Forward(x);
  EXPECT_NEAR(y.Sum() / static_cast<double>(y.size()), 1.0, 0.03);
}

TEST(DropoutTest, BackwardUsesSameMaskAsForward) {
  Dropout dropout(0.5, /*seed=*/4);
  Matrix x(10, 10, 1.0);
  Matrix y = dropout.Forward(x);
  Matrix g = dropout.Backward(Matrix(10, 10, 1.0));
  for (size_t i = 0; i < y.size(); ++i) {
    // Gradient is zero exactly where the activation was dropped.
    EXPECT_DOUBLE_EQ(g.data()[i] == 0.0, y.data()[i] == 0.0);
  }
}

TEST(DropoutTest, ZeroRateIsAlwaysIdentity) {
  Dropout dropout(0.0, /*seed=*/5);
  Matrix x(4, 4, 0.9);
  Matrix y = dropout.Forward(x);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(y.data()[i], x.data()[i]);
  }
}

TEST(DropoutDeathTest, RejectsBadRate) {
  EXPECT_DEATH({ Dropout dropout(1.0, 1); }, "rate");
  EXPECT_DEATH({ Dropout dropout(-0.1, 1); }, "rate");
}

TEST(DropoutTest, SequentialSetTrainingDispatches) {
  Rng rng(6);
  Sequential net;
  net.Add(std::make_unique<Linear>(4, 4, &rng));
  net.Add(std::make_unique<Dropout>(0.5, 7));
  net.SetTraining(false);
  Matrix x(2, 4, 0.5);
  // In eval mode two forward passes are deterministic and identical.
  Matrix y1 = net.Forward(x);
  Matrix y2 = net.Forward(x);
  for (size_t i = 0; i < y1.size(); ++i) {
    EXPECT_DOUBLE_EQ(y1.data()[i], y2.data()[i]);
  }
}

}  // namespace
}  // namespace nn
}  // namespace targad
