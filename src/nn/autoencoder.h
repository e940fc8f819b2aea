// Bottleneck autoencoder: two structurally symmetric MLPs (Section III-B4).
// The SAD-regularized training objective of Eq. (1) lives in
// core/sad_autoencoder.h; this class is the plain substrate, also reused by
// the DeepSAD and FEAWAD baselines.

#ifndef TARGAD_NN_AUTOENCODER_H_
#define TARGAD_NN_AUTOENCODER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace targad {
namespace nn {

/// Configuration for a symmetric bottleneck autoencoder.
struct AutoencoderConfig {
  size_t input_dim = 0;
  /// Encoder widths after the input, ending at the code dimension, e.g.
  /// {64, 16} builds  in -> 64 -> 16 -> 64 -> in.
  std::vector<size_t> encoder_dims = {64, 16};
  Activation hidden = Activation::kReLU;
  /// Output activation of the decoder; kSigmoid keeps reconstructions in
  /// [0, 1], matching the min-max normalized inputs used in the paper.
  Activation output = Activation::kSigmoid;
  double learning_rate = 1e-4;
  uint64_t seed = 0;
};

/// Encoder phi^E and decoder phi^D with a joint Adam optimizer.
class Autoencoder {
 public:
  explicit Autoencoder(const AutoencoderConfig& config);

  /// phi^E(x): bottleneck codes, one row per instance. Accepts zero-copy
  /// minibatch views as well as whole matrices.
  Matrix Encode(RowBlock x) { return encoder_.Forward(x); }

  /// phi^D(phi^E(x)).
  Matrix Reconstruct(RowBlock x) {
    return decoder_.Forward(encoder_.Forward(x));
  }

  /// Per-row reconstruction error S^Rec (Eq. 2).
  std::vector<double> ReconstructionErrors(RowBlock x);

  /// One plain reconstruction (MSE) step; returns the batch loss.
  double TrainStepMse(RowBlock x);

  /// Runs a forward pass and applies `grad_recon` (dLoss/dReconstruction)
  /// through decoder and encoder, then steps the optimizer. For custom
  /// objectives such as Eq. (1).
  void StepOnReconstructionGrad(const Matrix& grad_recon);

  size_t code_dim() const { return config_.encoder_dims.back(); }
  const AutoencoderConfig& config() const { return config_; }
  Sequential& encoder() { return encoder_; }
  Sequential& decoder() { return decoder_; }
  Adam& optimizer() { return *optimizer_; }

 private:
  AutoencoderConfig config_;
  Sequential encoder_;
  Sequential decoder_;
  std::unique_ptr<Adam> optimizer_;
};

}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_AUTOENCODER_H_
