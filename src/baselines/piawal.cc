#include "baselines/piawal.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/losses.h"

namespace targad {
namespace baselines {

Result<std::unique_ptr<Piawal>> Piawal::Make(const PiawalConfig& config) {
  if (config.noise_dim == 0 || config.epochs <= 0 || config.batch_size == 0) {
    return Status::InvalidArgument("PIA-WAL: bad noise_dim/epochs/batch_size");
  }
  return std::unique_ptr<Piawal>(new Piawal(config));
}

nn::Matrix Piawal::SampleNoise(size_t rows, Rng* rng) const {
  nn::Matrix z(rows, config_.noise_dim);
  for (double& v : z.data()) v = rng->Normal();
  return z;
}

Status Piawal::Fit(const data::TrainingSet& train) {
  TARGAD_RETURN_NOT_OK(train.Validate());
  Rng rng(config_.seed);
  const size_t d = train.dim();
  const size_t n_u = train.unlabeled_x.rows();

  Rng g_rng = rng.Fork();
  std::vector<size_t> g_sizes{config_.noise_dim};
  for (size_t h : config_.gen_hidden) g_sizes.push_back(h);
  g_sizes.push_back(d);
  // Sigmoid output keeps generated instances in the [0,1] feature range.
  generator_ = nn::Sequential::MakeMlp(g_sizes, nn::Activation::kReLU,
                                       nn::Activation::kSigmoid, &g_rng);
  gen_optimizer_ = std::make_unique<nn::Adam>(
      generator_.Params(), generator_.Grads(), config_.gen_learning_rate);

  Rng d_rng = rng.Fork();
  std::vector<size_t> d_sizes{d};
  for (size_t h : config_.disc_hidden) d_sizes.push_back(h);
  d_sizes.push_back(1);
  discriminator_ = nn::Sequential::MakeMlp(d_sizes, nn::Activation::kLeakyReLU,
                                           nn::Activation::kNone, &d_rng);
  disc_optimizer_ = std::make_unique<nn::Adam>(
      discriminator_.Params(), discriminator_.Grads(),
      config_.disc_learning_rate);

  std::vector<size_t> order(n_u);
  for (size_t i = 0; i < n_u; ++i) order[i] = i;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < n_u; start += config_.batch_size) {
      const size_t end = std::min(n_u, start + config_.batch_size);
      std::vector<size_t> u_idx(order.begin() + static_cast<long>(start),
                                order.begin() + static_cast<long>(end));
      const size_t nb = u_idx.size();

      // --- Discriminator step: unlabeled -> 1, generated -> 0, labeled
      // anomalies -> 0.
      nn::Matrix fake = generator_.Forward(SampleNoise(nb, &rng));
      const size_t n_a =
          std::min<size_t>(config_.anomalies_per_batch, train.labeled_x.rows());
      std::vector<size_t> a_idx(n_a);
      for (size_t i = 0; i < n_a; ++i) {
        a_idx[i] = static_cast<size_t>(rng.UniformInt(train.labeled_x.rows()));
      }
      nn::Matrix disc_batch(0, 0);
      disc_batch.AppendRows(train.unlabeled_x.SelectRows(u_idx));
      disc_batch.AppendRows(fake);
      disc_batch.AppendRows(train.labeled_x.SelectRows(a_idx));
      std::vector<double> targets(disc_batch.rows(), 0.0);
      for (size_t i = 0; i < nb; ++i) targets[i] = 1.0;

      nn::Matrix logits = discriminator_.Forward(disc_batch);
      nn::LossResult bce = nn::BinaryCrossEntropyWithLogits(
          logits, targets, {}, static_cast<double>(disc_batch.rows()));
      discriminator_.ZeroGrads();
      discriminator_.BackwardParams(bce.grad);
      disc_optimizer_->Step();

      // --- Generator step: make the discriminator call generated instances
      // normal, with per-instance weights emphasizing PERIPHERAL outputs
      // (discriminator output near 0.5).
      nn::Matrix noise = SampleNoise(nb, &rng);
      nn::Matrix gen_out = generator_.Forward(noise);
      nn::Matrix gen_logits = discriminator_.Forward(gen_out);
      const std::vector<double> probs = nn::SigmoidColumn(gen_logits);
      std::vector<double> gen_targets(nb, 1.0);
      std::vector<double> gen_weights(nb);
      for (size_t i = 0; i < nb; ++i) {
        // 1 - |2p - 1|: maximal at the boundary, zero at either extreme.
        gen_weights[i] = 1.0 - std::fabs(2.0 * probs[i] - 1.0);
        gen_weights[i] = std::max(0.1, gen_weights[i]);  // Keep a floor.
      }
      nn::LossResult gen_bce = nn::BinaryCrossEntropyWithLogits(
          gen_logits, gen_targets, gen_weights, static_cast<double>(nb));
      // Backprop through the (frozen) discriminator into the generator.
      discriminator_.ZeroGrads();
      nn::Matrix grad_gen_out = discriminator_.Backward(gen_bce.grad);
      generator_.ZeroGrads();
      generator_.BackwardParams(grad_gen_out);
      gen_optimizer_->Step();
    }
  }
  fitted_ = true;
  return Status::OK();
}

std::vector<double> Piawal::Score(const nn::Matrix& x) {
  TARGAD_CHECK(fitted_) << "PIA-WAL::Score before Fit";
  nn::Matrix logits = discriminator_.Forward(x);
  const std::vector<double> p = nn::SigmoidColumn(logits);
  std::vector<double> scores(p.size());
  for (size_t i = 0; i < p.size(); ++i) scores[i] = 1.0 - p[i];
  return scores;
}

}  // namespace baselines
}  // namespace targad
