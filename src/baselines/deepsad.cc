#include "baselines/deepsad.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/losses.h"
#include "nn/optimizer.h"

namespace targad {
namespace baselines {

Result<std::unique_ptr<DeepSad>> DeepSad::Make(const DeepSadConfig& config) {
  if (config.epochs <= 0 || config.batch_size == 0) {
    return Status::InvalidArgument("DeepSAD: bad epochs/batch_size");
  }
  if (config.eta < 0.0) return Status::InvalidArgument("DeepSAD: eta must be >= 0");
  return std::unique_ptr<DeepSad>(new DeepSad(config));
}

Status DeepSad::Fit(const data::TrainingSet& train) {
  TARGAD_RETURN_NOT_OK(train.Validate());
  Rng rng(config_.seed);

  nn::AutoencoderConfig ae_config;
  ae_config.input_dim = train.dim();
  ae_config.encoder_dims = config_.encoder_dims;
  ae_config.learning_rate = config_.learning_rate;
  ae_config.seed = config_.seed;
  ae_ = std::make_unique<nn::Autoencoder>(ae_config);

  const size_t n_u = train.unlabeled_x.rows();
  std::vector<size_t> order(n_u);
  for (size_t i = 0; i < n_u; ++i) order[i] = i;

  // Stage 1: autoencoder pretraining.
  for (int epoch = 0; epoch < config_.pretrain_epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < n_u; start += config_.batch_size) {
      const size_t end = std::min(n_u, start + config_.batch_size);
      std::vector<size_t> idx(order.begin() + static_cast<long>(start),
                              order.begin() + static_cast<long>(end));
      ae_->TrainStepMse(train.unlabeled_x.SelectRows(idx));
    }
  }

  // Center c: mean embedding of unlabeled data under the pretrained encoder.
  const size_t code_dim = ae_->code_dim();
  nn::Matrix codes = ae_->Encode(train.unlabeled_x);
  center_.assign(code_dim, 0.0);
  for (size_t i = 0; i < codes.rows(); ++i) {
    const double* row = codes.RowPtr(i);
    for (size_t j = 0; j < code_dim; ++j) center_[j] += row[j];
  }
  for (double& c : center_) c /= static_cast<double>(codes.rows());
  // Avoid the trivial solution of a zero center dimension (original
  // implementation nudges near-zero coordinates).
  for (double& c : center_) {
    if (std::fabs(c) < 1e-2) c = c >= 0.0 ? 1e-2 : -1e-2;
  }

  // Stage 2: hypersphere training on the encoder only. As in the original,
  // batches are drawn from the combined pool at NATURAL proportions (the
  // labeled anomalies are a tiny fraction, which is part of the setting —
  // no per-batch oversampling).
  const size_t n_a_total = train.labeled_x.rows();
  std::vector<size_t> combined(n_u + n_a_total);
  for (size_t i = 0; i < combined.size(); ++i) combined[i] = i;
  nn::Adam optimizer(ae_->encoder().Params(), ae_->encoder().Grads(),
                     config_.learning_rate);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(&combined);
    for (size_t start = 0; start < combined.size(); start += config_.batch_size) {
      const size_t end = std::min(combined.size(), start + config_.batch_size);
      std::vector<size_t> u_idx;
      std::vector<size_t> a_idx;
      for (size_t p = start; p < end; ++p) {
        if (combined[p] < n_u) {
          u_idx.push_back(combined[p]);
        } else {
          a_idx.push_back(combined[p] - n_u);
        }
      }
      nn::Matrix batch(0, 0);
      if (!u_idx.empty()) batch.AppendRows(train.unlabeled_x.SelectRows(u_idx));
      if (!a_idx.empty()) batch.AppendRows(train.labeled_x.SelectRows(a_idx));
      const size_t rows = batch.rows();
      if (rows == 0) continue;

      nn::Matrix z = ae_->encoder().Forward(batch);
      nn::Matrix grad(rows, code_dim, 0.0);
      const double inv_rows = 1.0 / static_cast<double>(rows);
      for (size_t i = 0; i < rows; ++i) {
        const double* zi = z.RowPtr(i);
        double dist2 = 0.0;
        for (size_t j = 0; j < code_dim; ++j) {
          const double d = zi[j] - center_[j];
          dist2 += d * d;
        }
        double* gi = grad.RowPtr(i);
        const bool is_anomaly = i >= u_idx.size();
        if (is_anomaly) {
          // eta * (dist^2 + eps)^{-1}: push labeled anomalies outward.
          const double e = dist2 + 1e-6;
          const double coef = -config_.eta * 2.0 / (e * e) * inv_rows;
          for (size_t j = 0; j < code_dim; ++j) {
            gi[j] = coef * (zi[j] - center_[j]);
          }
        } else {
          // dist^2: pull unlabeled toward the center.
          for (size_t j = 0; j < code_dim; ++j) {
            gi[j] = 2.0 * (zi[j] - center_[j]) * inv_rows;
          }
        }
      }
      ae_->encoder().ZeroGrads();
      ae_->encoder().BackwardParams(grad);
      optimizer.Step();
    }
  }
  fitted_ = true;
  return Status::OK();
}

std::vector<double> DeepSad::Score(const nn::Matrix& x) {
  TARGAD_CHECK(fitted_) << "DeepSAD::Score before Fit";
  nn::Matrix z = ae_->Encode(x);
  std::vector<double> scores(x.rows(), 0.0);
  for (size_t i = 0; i < x.rows(); ++i) {
    const double* zi = z.RowPtr(i);
    double dist2 = 0.0;
    for (size_t j = 0; j < z.cols(); ++j) {
      const double d = zi[j] - center_[j];
      dist2 += d * d;
    }
    scores[i] = dist2;
  }
  return scores;
}

}  // namespace baselines
}  // namespace targad
