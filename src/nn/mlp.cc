#include "nn/mlp.h"

#include "common/logging.h"

namespace targad {
namespace nn {

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  Rng rng(config.seed);
  net_ = Sequential::MakeMlp(config.sizes, config.hidden, config.output, &rng);
  optimizer_ = std::make_unique<Adam>(net_.Params(), net_.Grads(),
                                      config.learning_rate);
}

void Mlp::StepOnGrad(const Matrix& grad_out) {
  net_.ZeroGrads();
  net_.BackwardParams(grad_out);
  optimizer_->Step();
}

double Mlp::TrainStepCrossEntropy(RowBlock x, RowBlock targets,
                                  const std::vector<double>& weights) {
  TARGAD_CHECK(x.rows() > 0) << "TrainStepCrossEntropy on empty batch";
  Matrix logits = net_.Forward(x);
  LossResult lr = WeightedSoftCrossEntropy(logits, targets, weights,
                                           static_cast<double>(x.rows()));
  StepOnGrad(lr.grad);
  return lr.loss;
}

double Mlp::TrainStepMse(RowBlock x, RowBlock targets) {
  TARGAD_CHECK(x.rows() > 0) << "TrainStepMse on empty batch";
  Matrix out = net_.Forward(x);
  LossResult lr = MseLoss(out, targets);
  StepOnGrad(lr.grad);
  return lr.loss;
}

}  // namespace nn
}  // namespace targad
