// Layer interface and concrete layers for the feed-forward networks used by
// TargAD and the neural baselines. No autograd: each layer implements its
// analytic backward pass; gradcheck.h verifies them against finite
// differences in the test suite.

#ifndef TARGAD_NN_LAYERS_H_
#define TARGAD_NN_LAYERS_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/matrix.h"

namespace targad {
namespace nn {

/// A differentiable transformation of a batch (rows = instances).
///
/// Contract: Backward must be called with the upstream gradient of the most
/// recent Forward's output, and accumulates parameter gradients (call
/// ZeroGrads between optimizer steps).
///
/// Forward/Infer take RowBlock views so minibatch training can feed
/// zero-copy slices of a per-epoch matrix straight into the first layer's
/// kernel; passing a whole Matrix still works via the implicit view
/// conversion. A layer that needs the input past the call copies it (the
/// view's lifetime is the call).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Maps a batch to its output; caches whatever backward needs.
  virtual Matrix Forward(RowBlock x) = 0;

  /// Inference-only forward pass: same arithmetic as an eval-mode Forward
  /// but const and cache-free, so one fitted network can be scored from
  /// many threads concurrently (the serving path relies on this).
  /// Stochastic layers (Dropout) behave as in eval mode.
  virtual Matrix Infer(RowBlock x) const = 0;

  /// Maps dLoss/dOutput to dLoss/dInput; accumulates parameter grads.
  virtual Matrix Backward(const Matrix& grad_out) = 0;

  /// Accumulates the same parameter grads as Backward, bit for bit, without
  /// computing dLoss/dInput (Sequential::BackwardParams calls it on a
  /// stack's first layer with parameters).
  virtual void BackwardParams(const Matrix& grad_out) { (void)Backward(grad_out); }

  /// Trainable parameters (empty for activations).
  virtual std::vector<Matrix*> Params() { return {}; }

  /// Gradients, parallel to Params().
  virtual std::vector<Matrix*> Grads() { return {}; }

  virtual std::string name() const = 0;

  /// Train/eval mode switch; only stochastic layers (Dropout) react.
  virtual void set_training(bool training) { (void)training; }

  void ZeroGrads() {
    for (Matrix* g : Grads()) {
      std::fill(g->data().begin(), g->data().end(), 0.0);
    }
  }
};

/// Fully connected layer: y = x W + b, W is (in x out), b is (1 x out).
class Linear : public Layer {
 public:
  /// Initializes W with He-uniform (good default for the ReLU nets used
  /// throughout) and b with zeros.
  Linear(size_t in_features, size_t out_features, Rng* rng);

  Matrix Forward(RowBlock x) override;
  Matrix Infer(RowBlock x) const override;
  Matrix Backward(const Matrix& grad_out) override;
  void BackwardParams(const Matrix& grad_out) override;
  std::vector<Matrix*> Params() override { return {&w_, &b_}; }
  std::vector<Matrix*> Grads() override { return {&gw_, &gb_}; }
  std::string name() const override { return "Linear"; }

  size_t in_features() const { return w_.rows(); }
  size_t out_features() const { return w_.cols(); }

  const Matrix& weight() const { return w_; }
  Matrix& weight() { return w_; }
  const Matrix& bias() const { return b_; }
  Matrix& bias() { return b_; }

 private:
  Matrix w_, b_;
  Matrix gw_, gb_;
  Matrix input_;  // Cached for backward.
};

/// Rectified linear unit.
class ReLU : public Layer {
 public:
  Matrix Forward(RowBlock x) override;
  Matrix Infer(RowBlock x) const override;
  Matrix Backward(const Matrix& grad_out) override;
  std::string name() const override { return "ReLU"; }

 private:
  Matrix input_;  // Pre-activation input, the backward-mask reference.
};

/// Leaky ReLU with configurable negative slope (default 0.01).
class LeakyReLU : public Layer {
 public:
  explicit LeakyReLU(double slope = 0.01) : slope_(slope) {}
  Matrix Forward(RowBlock x) override;
  Matrix Infer(RowBlock x) const override;
  Matrix Backward(const Matrix& grad_out) override;
  std::string name() const override { return "LeakyReLU"; }

  double slope() const { return slope_; }

 private:
  double slope_;
  Matrix input_;
};

/// Logistic sigmoid.
class Sigmoid : public Layer {
 public:
  Matrix Forward(RowBlock x) override;
  Matrix Infer(RowBlock x) const override;
  Matrix Backward(const Matrix& grad_out) override;
  std::string name() const override { return "Sigmoid"; }

 private:
  Matrix output_;
};

/// Inverted dropout: during training each activation is zeroed with
/// probability `rate` and survivors are scaled by 1/(1-rate); in eval mode
/// the layer is the identity. Deterministic given its seed.
class Dropout : public Layer {
 public:
  /// rate in [0, 1).
  Dropout(double rate, uint64_t seed);

  /// Training mode draws the whole Bernoulli mask in one pre-pass (fixed,
  /// flat RNG order), then applies it through the Hadamard kernel.
  Matrix Forward(RowBlock x) override;
  /// Identity: inference always behaves as eval mode.
  Matrix Infer(RowBlock x) const override { return x.ToMatrix(); }
  Matrix Backward(const Matrix& grad_out) override;
  void set_training(bool training) override { training_ = training; }
  std::string name() const override { return "Dropout"; }

  bool training() const { return training_; }
  double rate() const { return rate_; }

 private:
  double rate_;
  Rng rng_;
  bool training_ = true;
  Matrix mask_;
};

/// Hyperbolic tangent.
class Tanh : public Layer {
 public:
  Matrix Forward(RowBlock x) override;
  Matrix Infer(RowBlock x) const override;
  Matrix Backward(const Matrix& grad_out) override;
  std::string name() const override { return "Tanh"; }

 private:
  Matrix output_;
};

}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_LAYERS_H_
