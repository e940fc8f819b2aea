#include "nn/autoencoder.h"

#include "common/logging.h"

namespace targad {
namespace nn {

Autoencoder::Autoencoder(const AutoencoderConfig& config) : config_(config) {
  TARGAD_CHECK(config.input_dim > 0) << "Autoencoder input_dim must be positive";
  TARGAD_CHECK(!config.encoder_dims.empty()) << "Autoencoder needs encoder_dims";
  Rng rng(config.seed);

  std::vector<size_t> enc_sizes;
  enc_sizes.push_back(config.input_dim);
  for (size_t d : config.encoder_dims) enc_sizes.push_back(d);
  // Hidden activation also on the code layer, standard bottleneck design.
  encoder_ = Sequential::MakeMlp(enc_sizes, config.hidden, config.hidden, &rng);

  std::vector<size_t> dec_sizes(enc_sizes.rbegin(), enc_sizes.rend());
  decoder_ = Sequential::MakeMlp(dec_sizes, config.hidden, config.output, &rng);

  std::vector<Matrix*> params = encoder_.Params();
  std::vector<Matrix*> grads = encoder_.Grads();
  for (Matrix* p : decoder_.Params()) params.push_back(p);
  for (Matrix* g : decoder_.Grads()) grads.push_back(g);
  optimizer_ = std::make_unique<Adam>(std::move(params), std::move(grads),
                                      config.learning_rate);
}

std::vector<double> Autoencoder::ReconstructionErrors(RowBlock x) {
  return RowSquaredErrors(Reconstruct(x), x);
}

double Autoencoder::TrainStepMse(RowBlock x) {
  Matrix recon = Reconstruct(x);
  LossResult lr = MseLoss(recon, x);
  StepOnReconstructionGrad(lr.grad);
  return lr.loss;
}

void Autoencoder::StepOnReconstructionGrad(const Matrix& grad_recon) {
  encoder_.ZeroGrads();
  decoder_.ZeroGrads();
  Matrix g = decoder_.Backward(grad_recon);
  encoder_.BackwardParams(g);
  optimizer_->Step();
}

}  // namespace nn
}  // namespace targad
