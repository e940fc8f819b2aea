#include "core/sad_autoencoder.h"

#include <algorithm>

#include "common/logging.h"
#include "nn/losses.h"
#include "nn/minibatch.h"

namespace targad {
namespace core {

Result<SadAutoencoder> SadAutoencoder::Make(const SadAutoencoderConfig& config) {
  if (config.input_dim == 0) {
    return Status::InvalidArgument("SadAutoencoder: input_dim must be positive");
  }
  if (config.encoder_dims.empty()) {
    return Status::InvalidArgument("SadAutoencoder: encoder_dims empty");
  }
  if (config.eta < 0.0) {
    return Status::InvalidArgument("SadAutoencoder: eta must be >= 0");
  }
  if (config.epochs <= 0 || config.batch_size == 0) {
    return Status::InvalidArgument("SadAutoencoder: bad epochs/batch_size");
  }
  SadAutoencoder sad;
  sad.config_ = config;
  nn::AutoencoderConfig ae_config;
  ae_config.input_dim = config.input_dim;
  ae_config.encoder_dims = config.encoder_dims;
  ae_config.learning_rate = config.learning_rate;
  ae_config.seed = config.seed;
  sad.ae_ = std::make_unique<nn::Autoencoder>(ae_config);
  return sad;
}

std::vector<double> SadAutoencoder::Fit(const nn::Matrix& unlabeled,
                                        const nn::Matrix& labeled) {
  TARGAD_CHECK(unlabeled.rows() > 0) << "SadAutoencoder::Fit: empty cluster";
  TARGAD_CHECK(labeled.rows() == 0 || labeled.cols() == unlabeled.cols())
      << "SadAutoencoder::Fit: labeled/unlabeled dim mismatch";

  Rng rng(config_.seed ^ 0xAEAEAEAEULL);
  const size_t n = unlabeled.rows();
  // One shuffle + one gather per epoch; batches are zero-copy views. The
  // scheduler's RNG call sequence matches the historical per-batch
  // SelectRows loop exactly, so batch contents are bit-identical.
  nn::MinibatchScheduler sched(n, config_.batch_size);

  const bool use_sad = labeled.rows() > 0 && config_.eta > 0.0;
  std::vector<double> epoch_losses;
  epoch_losses.reserve(static_cast<size_t>(config_.epochs));

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    sched.BeginEpoch(unlabeled, &rng);
    double epoch_loss = 0.0;
    size_t steps = 0;
    for (size_t b = 0; b < sched.num_batches(); ++b) {
      const nn::RowBlock batch = sched.Batch(b);

      double step_loss;
      if (use_sad) {
        // The two terms of Eq. (1) are backpropagated in separate passes
        // (the layer caches hold one batch at a time); gradients ACCUMULATE
        // across the passes and a single Adam step applies the sum.
        const size_t lb = std::min<size_t>(
            labeled.rows(), std::max<size_t>(1, config_.labeled_batch_size));
        std::vector<size_t> lab_idx = rng.SampleWithoutReplacement(labeled.rows(), lb);
        const nn::Matrix lab_batch = labeled.SelectRows(lab_idx);

        ae_->encoder().ZeroGrads();
        ae_->decoder().ZeroGrads();

        // Pass 1 — first term of Eq. (1): mean reconstruction error on the
        // cluster's unlabeled batch.
        nn::Matrix recon_u = ae_->Reconstruct(batch);
        nn::LossResult mse = nn::MseLoss(recon_u, batch);
        nn::Matrix g_code = ae_->decoder().Backward(mse.grad);
        ae_->encoder().BackwardParams(g_code);

        // Pass 2 — second term: eta * mean INVERSE reconstruction error of
        // labeled target anomalies (pushes them to reconstruct poorly).
        nn::Matrix recon_l = ae_->Reconstruct(lab_batch);
        nn::LossResult inv = nn::InverseErrorLoss(recon_l, lab_batch);
        inv.grad.MulInPlace(config_.eta);
        nn::Matrix g_code_l = ae_->decoder().Backward(inv.grad);
        ae_->encoder().BackwardParams(g_code_l);

        ae_->optimizer().Step();
        step_loss = mse.loss + config_.eta * inv.loss;
      } else {
        nn::Matrix recon_u = ae_->Reconstruct(batch);
        nn::LossResult mse = nn::MseLoss(recon_u, batch);
        ae_->StepOnReconstructionGrad(mse.grad);
        step_loss = mse.loss;
      }

      epoch_loss += step_loss;
      ++steps;
    }
    epoch_losses.push_back(steps > 0 ? epoch_loss / static_cast<double>(steps) : 0.0);
  }
  return epoch_losses;
}

}  // namespace core
}  // namespace targad
