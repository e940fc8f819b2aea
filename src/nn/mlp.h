// Mlp: a Sequential + Adam bundle with convenience training methods. The
// TargAD classifier and several baselines build on this.

#ifndef TARGAD_NN_MLP_H_
#define TARGAD_NN_MLP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace targad {
namespace nn {

/// Configuration for a plain feed-forward network.
struct MlpConfig {
  /// Layer widths {in, h1, ..., out}.
  std::vector<size_t> sizes;
  Activation hidden = Activation::kReLU;
  /// Output activation; kNone emits raw logits.
  Activation output = Activation::kNone;
  double learning_rate = 1e-3;
  uint64_t seed = 0;
};

/// A feed-forward network with its optimizer. Not thread-safe.
class Mlp {
 public:
  explicit Mlp(const MlpConfig& config);

  /// Forward pass returning raw outputs (logits if output == kNone).
  /// Accepts zero-copy minibatch views as well as whole matrices.
  Matrix Forward(RowBlock x) { return net_.Forward(x); }

  /// Inference-only forward pass: const, cache-free, and safe to call
  /// concurrently on a shared fitted network (Sequential::Infer).
  Matrix Infer(RowBlock x) const { return net_.Infer(x); }

  /// Softmax of the forward pass.
  Matrix PredictProba(RowBlock x) { return SoftmaxRows(net_.Forward(x)); }

  /// Softmax of the inference-only pass.
  Matrix InferProba(RowBlock x) const { return SoftmaxRows(net_.Infer(x)); }

  /// One optimizer step on an externally computed output gradient. The
  /// caller must have just run Forward on the same batch.
  void StepOnGrad(const Matrix& grad_out);

  /// One weighted soft-target cross-entropy step; returns the batch loss.
  double TrainStepCrossEntropy(RowBlock x, RowBlock targets,
                               const std::vector<double>& weights = {});

  /// One MSE regression step; returns the batch loss.
  double TrainStepMse(RowBlock x, RowBlock targets);

  Sequential& net() { return net_; }
  const Sequential& net() const { return net_; }
  const MlpConfig& config() const { return config_; }

 private:
  MlpConfig config_;
  Sequential net_;
  std::unique_ptr<Adam> optimizer_;
};

}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_MLP_H_
