#include "baselines/dual_mgan.h"

#include <algorithm>

#include "common/logging.h"
#include "nn/losses.h"

namespace targad {
namespace baselines {

Result<std::unique_ptr<DualMgan>> DualMgan::Make(const DualMganConfig& config) {
  if (config.noise_dim == 0 || config.aug_epochs <= 0 || config.det_epochs <= 0 ||
      config.batch_size == 0) {
    return Status::InvalidArgument("Dual-MGAN: bad config");
  }
  return std::unique_ptr<DualMgan>(new DualMgan(config));
}

nn::Matrix DualMgan::SampleNoise(size_t rows, Rng* rng) const {
  nn::Matrix z(rows, config_.noise_dim);
  for (double& v : z.data()) v = rng->Normal();
  return z;
}

Status DualMgan::Fit(const data::TrainingSet& train) {
  TARGAD_RETURN_NOT_OK(train.Validate());
  Rng rng(config_.seed);
  const size_t d = train.dim();
  const size_t n_a = train.labeled_x.rows();
  const size_t n_u = train.unlabeled_x.rows();

  auto make_gen = [&](Rng* r) {
    std::vector<size_t> sizes{config_.noise_dim};
    for (size_t h : config_.gen_hidden) sizes.push_back(h);
    sizes.push_back(d);
    return nn::Sequential::MakeMlp(sizes, nn::Activation::kReLU,
                                   nn::Activation::kSigmoid, r);
  };
  auto make_disc = [&](Rng* r) {
    std::vector<size_t> sizes{d};
    for (size_t h : config_.disc_hidden) sizes.push_back(h);
    sizes.push_back(1);
    return nn::Sequential::MakeMlp(sizes, nn::Activation::kLeakyReLU,
                                   nn::Activation::kNone, r);
  };

  Rng r1 = rng.Fork(), r2 = rng.Fork(), r3 = rng.Fork();
  aug_generator_ = make_gen(&r1);
  aug_discriminator_ = make_disc(&r2);
  det_discriminator_ = make_disc(&r3);
  aug_gen_opt_ = std::make_unique<nn::Adam>(
      aug_generator_.Params(), aug_generator_.Grads(), config_.learning_rate);
  aug_disc_opt_ = std::make_unique<nn::Adam>(aug_discriminator_.Params(),
                                             aug_discriminator_.Grads(),
                                             config_.learning_rate);
  det_disc_opt_ = std::make_unique<nn::Adam>(det_discriminator_.Params(),
                                             det_discriminator_.Grads(),
                                             config_.learning_rate);

  // --- Phase 1: augmentation GAN over the labeled anomalies.
  const size_t aug_batch = std::min<size_t>(config_.batch_size, n_a);
  for (int epoch = 0; epoch < config_.aug_epochs; ++epoch) {
    // Discriminator: real anomalies -> 1, generated -> 0.
    std::vector<size_t> a_idx = rng.SampleWithoutReplacement(n_a, aug_batch);
    nn::Matrix fake = aug_generator_.Forward(SampleNoise(aug_batch, &rng));
    nn::Matrix disc_batch(0, 0);
    disc_batch.AppendRows(train.labeled_x.SelectRows(a_idx));
    disc_batch.AppendRows(fake);
    std::vector<double> targets(disc_batch.rows(), 0.0);
    for (size_t i = 0; i < aug_batch; ++i) targets[i] = 1.0;
    nn::Matrix logits = aug_discriminator_.Forward(disc_batch);
    nn::LossResult bce = nn::BinaryCrossEntropyWithLogits(
        logits, targets, {}, static_cast<double>(disc_batch.rows()));
    aug_discriminator_.ZeroGrads();
    aug_discriminator_.BackwardParams(bce.grad);
    aug_disc_opt_->Step();

    // Generator: fool the discriminator.
    nn::Matrix gen_out = aug_generator_.Forward(SampleNoise(aug_batch, &rng));
    nn::Matrix gen_logits = aug_discriminator_.Forward(gen_out);
    std::vector<double> gen_targets(aug_batch, 1.0);
    nn::LossResult gen_bce = nn::BinaryCrossEntropyWithLogits(
        gen_logits, gen_targets, {}, static_cast<double>(aug_batch));
    aug_discriminator_.ZeroGrads();
    nn::Matrix grad_out = aug_discriminator_.Backward(gen_bce.grad);
    aug_generator_.ZeroGrads();
    aug_generator_.BackwardParams(grad_out);
    aug_gen_opt_->Step();
  }

  // Synthetic anomaly bank.
  const size_t n_synth = n_a * config_.augmentation_factor;
  nn::Matrix synth =
      n_synth > 0 ? aug_generator_.Forward(SampleNoise(n_synth, &rng))
                  : nn::Matrix(0, d);

  // --- Phase 2: detection discriminator. Unlabeled -> 1 (normal side),
  // real + synthetic anomalies -> 0.
  std::vector<size_t> order(n_u);
  for (size_t i = 0; i < n_u; ++i) order[i] = i;
  for (int epoch = 0; epoch < config_.det_epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < n_u; start += config_.batch_size) {
      const size_t end = std::min(n_u, start + config_.batch_size);
      std::vector<size_t> u_idx(order.begin() + static_cast<long>(start),
                                order.begin() + static_cast<long>(end));
      const size_t n_anom_batch =
          std::min<size_t>(config_.anomalies_per_batch, n_a);
      nn::Matrix batch(0, 0);
      batch.AppendRows(train.unlabeled_x.SelectRows(u_idx));
      std::vector<size_t> a_idx(n_anom_batch);
      for (size_t i = 0; i < n_anom_batch; ++i) {
        a_idx[i] = static_cast<size_t>(rng.UniformInt(n_a));
      }
      batch.AppendRows(train.labeled_x.SelectRows(a_idx));
      size_t n_synth_batch = 0;
      if (synth.rows() > 0) {
        n_synth_batch = std::min<size_t>(n_anom_batch, synth.rows());
        std::vector<size_t> s_idx(n_synth_batch);
        for (size_t i = 0; i < n_synth_batch; ++i) {
          s_idx[i] = static_cast<size_t>(rng.UniformInt(synth.rows()));
        }
        batch.AppendRows(synth.SelectRows(s_idx));
      }
      std::vector<double> targets(batch.rows(), 0.0);
      for (size_t i = 0; i < u_idx.size(); ++i) targets[i] = 1.0;

      nn::Matrix logits = det_discriminator_.Forward(batch);
      nn::LossResult bce = nn::BinaryCrossEntropyWithLogits(
          logits, targets, {}, static_cast<double>(batch.rows()));
      det_discriminator_.ZeroGrads();
      det_discriminator_.BackwardParams(bce.grad);
      det_disc_opt_->Step();
    }
  }
  fitted_ = true;
  return Status::OK();
}

std::vector<double> DualMgan::Score(const nn::Matrix& x) {
  TARGAD_CHECK(fitted_) << "Dual-MGAN::Score before Fit";
  nn::Matrix logits = det_discriminator_.Forward(x);
  const std::vector<double> p = nn::SigmoidColumn(logits);
  std::vector<double> scores(p.size());
  for (size_t i = 0; i < p.size(); ++i) scores[i] = 1.0 - p[i];
  return scores;
}

}  // namespace baselines
}  // namespace targad
