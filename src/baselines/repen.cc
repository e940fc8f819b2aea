#include "baselines/repen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "nn/kernels/kernels.h"

namespace targad {
namespace baselines {

Result<std::unique_ptr<Repen>> Repen::Make(const RepenConfig& config) {
  if (config.embedding_dim == 0 || config.ensemble_size == 0 ||
      config.subsample_size == 0) {
    return Status::InvalidArgument("REPEN: bad embedding/ensemble settings");
  }
  if (config.candidate_fraction <= 0.0 || config.candidate_fraction >= 0.5) {
    return Status::InvalidArgument("REPEN: candidate_fraction must be in (0, 0.5)");
  }
  return std::unique_ptr<Repen>(new Repen(config));
}

nn::Matrix Repen::Embed(const nn::Matrix& x) { return net_.Forward(x); }

std::vector<double> Repen::LesinnScores(const nn::Matrix& x, const nn::Matrix& pool,
                                        bool use_embedding, Rng* rng) {
  // Score = average over the ensemble of the distance to the NEAREST member
  // of a small random subsample: isolated points sit far from everything.
  const nn::Matrix x_eval = use_embedding ? Embed(x) : x;
  const nn::Matrix pool_eval = use_embedding ? Embed(pool) : pool;
  std::vector<double> scores(x.rows(), 0.0);
  const size_t psi = std::min(config_.subsample_size, pool.rows());
  for (size_t e = 0; e < config_.ensemble_size; ++e) {
    const std::vector<size_t> sub = rng->SampleWithoutReplacement(pool.rows(), psi);
    for (size_t i = 0; i < x_eval.rows(); ++i) {
      double nearest = std::numeric_limits<double>::max();
      for (size_t s : sub) {
        nearest = std::min(nearest, x_eval.RowSquaredDistance(i, pool_eval, s));
      }
      scores[i] += std::sqrt(nearest);
    }
  }
  const double inv = 1.0 / static_cast<double>(config_.ensemble_size);
  for (double& s : scores) s *= inv;
  return scores;
}

Status Repen::Fit(const data::TrainingSet& train) {
  TARGAD_RETURN_NOT_OK(train.Validate());
  Rng rng(config_.seed);
  const size_t n = train.unlabeled_x.rows();
  const size_t d = train.dim();

  // Single linear projection, as in the original REPEN.
  Rng net_rng = rng.Fork();
  net_ = nn::Sequential::MakeMlp({d, config_.embedding_dim}, nn::Activation::kNone,
                                 nn::Activation::kNone, &net_rng);
  optimizer_ = std::make_unique<nn::Adam>(net_.Params(), net_.Grads(),
                                          config_.learning_rate);

  // Initial outlier candidates from raw-space LeSiNN scores.
  std::vector<double> init_scores =
      LesinnScores(train.unlabeled_x, train.unlabeled_x, /*use_embedding=*/false,
                   &rng);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return init_scores[a] > init_scores[b]; });
  const size_t n_out = std::max<size_t>(
      1, static_cast<size_t>(std::llround(config_.candidate_fraction *
                                          static_cast<double>(n))));
  std::vector<size_t> outlier_cand(order.begin(),
                                   order.begin() + static_cast<long>(n_out));
  std::vector<size_t> inlier_cand(order.begin() + static_cast<long>(n_out),
                                  order.end());

  // Weak supervision: labeled anomalies join the outlier-candidate pool.
  nn::Matrix outlier_x = train.unlabeled_x.SelectRows(outlier_cand);
  outlier_x.AppendRows(train.labeled_x);
  const nn::Matrix inlier_x = train.unlabeled_x.SelectRows(inlier_cand);

  // Triplet hinge training: pull inliers together, push outliers out.
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (size_t start = 0; start < config_.triplets_per_epoch;
         start += config_.batch_size) {
      const size_t rows =
          std::min(config_.batch_size, config_.triplets_per_epoch - start);
      // Batch layout: [anchor inlier | positive inlier | negative outlier].
      nn::Matrix batch(3 * rows, d);
      for (size_t i = 0; i < rows; ++i) {
        const size_t a = inlier_cand[rng.UniformInt(inlier_cand.size())];
        size_t p = inlier_cand[rng.UniformInt(inlier_cand.size())];
        const size_t o = rng.UniformInt(outlier_x.rows());
        std::copy(train.unlabeled_x.RowPtr(a), train.unlabeled_x.RowPtr(a) + d,
                  batch.RowPtr(i));
        std::copy(train.unlabeled_x.RowPtr(p), train.unlabeled_x.RowPtr(p) + d,
                  batch.RowPtr(rows + i));
        std::copy(outlier_x.RowPtr(o), outlier_x.RowPtr(o) + d,
                  batch.RowPtr(2 * rows + i));
      }
      nn::Matrix z = net_.Forward(batch);
      const size_t e_dim = z.cols();
      nn::Matrix grad(z.rows(), e_dim, 0.0);
      const double inv_rows = 1.0 / static_cast<double>(rows);
      for (size_t i = 0; i < rows; ++i) {
        const double* za = z.RowPtr(i);
        const double* zp = z.RowPtr(rows + i);
        const double* zo = z.RowPtr(2 * rows + i);
        const double d_ap = nn::kernels::SquaredDistance(e_dim, za, zp);
        const double d_ao = nn::kernels::SquaredDistance(e_dim, za, zo);
        // hinge: max(0, margin + d(a,p) - d(a,o)).
        if (config_.margin + d_ap - d_ao > 0.0) {
          double* ga = grad.RowPtr(i);
          double* gp = grad.RowPtr(rows + i);
          double* go = grad.RowPtr(2 * rows + i);
          for (size_t j = 0; j < e_dim; ++j) {
            const double dap = 2.0 * (za[j] - zp[j]) * inv_rows;
            const double dao = 2.0 * (za[j] - zo[j]) * inv_rows;
            ga[j] += dap - dao;
            gp[j] += -dap;
            go[j] += dao;
          }
        }
      }
      net_.ZeroGrads();
      net_.BackwardParams(grad);
      optimizer_->Step();
    }
  }

  // Retain a pool for scoring-time subsampling (cap for speed).
  const size_t pool_cap = std::min<size_t>(n, 2048);
  train_pool_ =
      train.unlabeled_x.SelectRows(rng.SampleWithoutReplacement(n, pool_cap));
  fitted_ = true;
  return Status::OK();
}

std::vector<double> Repen::Score(const nn::Matrix& x) {
  TARGAD_CHECK(fitted_) << "REPEN::Score before Fit";
  Rng rng(config_.seed ^ 0x5C03EULL);
  return LesinnScores(x, train_pool_, /*use_embedding=*/true, &rng);
}

}  // namespace baselines
}  // namespace targad
