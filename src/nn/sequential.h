// Sequential: an ordered stack of layers trained by explicit
// forward/backward calls.

#ifndef TARGAD_NN_SEQUENTIAL_H_
#define TARGAD_NN_SEQUENTIAL_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/matrix.h"

namespace targad {
namespace nn {

/// Supported hidden-layer activations for the MLP builders.
enum class Activation { kReLU, kLeakyReLU, kSigmoid, kTanh, kNone };

/// An ordered stack of layers. Forward runs left to right, Backward right to
/// left. Owns its layers.
class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& Add(std::unique_ptr<Layer> layer);

  /// Builds Linear(+activation) stacks from `sizes` = {in, h1, ..., out}.
  /// `hidden` is applied after every Linear except the last; `output` (often
  /// kNone for logits) is applied after the last Linear.
  static Sequential MakeMlp(const std::vector<size_t>& sizes, Activation hidden,
                            Activation output, Rng* rng);

  /// Runs the batch through all layers. Takes a zero-copy row-block view:
  /// a minibatch slice of an epoch matrix flows straight into the first
  /// layer's kernel without being materialized (whole matrices convert
  /// implicitly).
  Matrix Forward(RowBlock x);

  /// Inference-only pass: eval-mode arithmetic, const and cache-free, safe
  /// to call concurrently on a shared fitted network (see Layer::Infer).
  Matrix Infer(RowBlock x) const;

  /// Backpropagates dLoss/dOutput; returns dLoss/dInput and accumulates
  /// parameter gradients in each layer.
  Matrix Backward(const Matrix& grad_out);

  /// Backward for callers that discard dLoss/dInput: accumulates the same
  /// parameter gradients, bit for bit, and stops after the weight and bias
  /// gradients of the first layer that has parameters, so neither that
  /// layer's input-gradient product nor any layer below it runs.
  void BackwardParams(const Matrix& grad_out);

  /// All trainable parameters, in layer order.
  std::vector<Matrix*> Params();

  /// All parameter gradients, parallel to Params().
  std::vector<Matrix*> Grads();

  void ZeroGrads();

  /// Puts every layer in train or eval mode (Dropout reacts; others no-op).
  void SetTraining(bool training);

  /// Copies parameter values from an identically shaped network (used for
  /// DQN target networks in the DPLAN baseline).
  void CopyParamsFrom(Sequential& other);

  size_t num_layers() const { return layers_.size(); }
  Layer* layer(size_t i) { return layers_[i].get(); }
  const Layer* layer(size_t i) const { return layers_[i].get(); }

  /// Total number of scalar parameters.
  size_t NumParameters();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Instantiates one activation layer (kNone yields nullptr).
std::unique_ptr<Layer> MakeActivation(Activation act);

}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_SEQUENTIAL_H_
