#include "core/classifier.h"

#include <algorithm>

#include "common/logging.h"
#include "core/pseudo_labels.h"
#include "nn/kernels/kernels.h"
#include "nn/losses.h"

namespace targad {
namespace core {

namespace {

/// Which of the three sets a pooled training instance belongs to.
enum class Role : int { kLabeled = 0, kNormalCand = 1, kAnomalyCand = 2 };

struct PooledIndex {
  Role role;
  size_t index;  // Within that role's own matrix.
};

}  // namespace

Result<TargAdClassifier> TargAdClassifier::Make(const ClassifierConfig& config,
                                                size_t input_dim, int m, int k) {
  if (input_dim == 0) return Status::InvalidArgument("classifier: input_dim is 0");
  if (m <= 0 || k <= 0) {
    return Status::InvalidArgument("classifier needs m > 0 and k > 0, got m=", m,
                                   " k=", k);
  }
  if (config.batch_size == 0) return Status::InvalidArgument("batch_size is 0");
  if (config.lambda1 < 0.0 || config.lambda2 < 0.0) {
    return Status::InvalidArgument("lambda1/lambda2 must be >= 0");
  }
  TargAdClassifier clf;
  clf.config_ = config;
  clf.m_ = m;
  clf.k_ = k;
  nn::MlpConfig mlp_config;
  mlp_config.sizes.push_back(input_dim);
  for (size_t h : config.hidden) mlp_config.sizes.push_back(h);
  mlp_config.sizes.push_back(static_cast<size_t>(m + k));
  mlp_config.hidden = nn::Activation::kReLU;
  mlp_config.output = nn::Activation::kNone;
  mlp_config.learning_rate = config.learning_rate;
  mlp_config.seed = config.seed;
  clf.mlp_ = std::make_unique<nn::Mlp>(mlp_config);
  return clf;
}

EpochLoss TargAdClassifier::TrainEpoch(const nn::Matrix& labeled_x,
                                       const std::vector<int>& labeled_class,
                                       const nn::Matrix& normal_x,
                                       const std::vector<int>& normal_cluster,
                                       const nn::Matrix& anomaly_x,
                                       const std::vector<double>& anomaly_weights,
                                       Rng* rng) {
  TARGAD_CHECK(labeled_x.rows() == labeled_class.size());
  TARGAD_CHECK(normal_x.rows() == normal_cluster.size());
  TARGAD_CHECK(anomaly_x.rows() == anomaly_weights.size());

  // Pool the three roles and shuffle; every mini-batch carries a mix, and
  // each loss term averages over the instances of its role in the batch —
  // the unbiased mini-batch estimate of the full-set objective.
  std::vector<PooledIndex> pool;
  pool.reserve(labeled_x.rows() + normal_x.rows() + anomaly_x.rows());
  for (size_t i = 0; i < labeled_x.rows(); ++i) pool.push_back({Role::kLabeled, i});
  for (size_t i = 0; i < normal_x.rows(); ++i) pool.push_back({Role::kNormalCand, i});
  if (config_.use_oe) {
    for (size_t i = 0; i < anomaly_x.rows(); ++i) {
      pool.push_back({Role::kAnomalyCand, i});
    }
  }
  rng->Shuffle(&pool);

  EpochLoss epoch;
  size_t steps = 0;
  const size_t total_cols = static_cast<size_t>(m_ + k_);
  if (pool.empty()) return epoch;

  // Sort each mini-batch segment by role. stable_sort preserves within-role
  // order, so each segment holds exactly the rows the historical three-way
  // partition produced — labeled first, then normal, then anomaly candidates
  // — and every per-role loss input becomes a CONTIGUOUS range of the batch.
  for (size_t start = 0; start < pool.size(); start += config_.batch_size) {
    const size_t end = std::min(pool.size(), start + config_.batch_size);
    std::stable_sort(pool.begin() + static_cast<long>(start),
                     pool.begin() + static_cast<long>(end),
                     [](const PooledIndex& a, const PooledIndex& b) {
                       return static_cast<int>(a.role) < static_cast<int>(b.role);
                     });
  }

  // Gather the whole epoch's rows once; batches and logits sub-ranges are
  // then zero-copy views instead of per-batch SelectRows/AppendRows copies.
  const size_t dim = labeled_x.rows() > 0   ? labeled_x.cols()
                     : normal_x.rows() > 0 ? normal_x.cols()
                                           : anomaly_x.cols();
  TARGAD_CHECK(labeled_x.rows() == 0 || labeled_x.cols() == dim);
  TARGAD_CHECK(normal_x.rows() == 0 || normal_x.cols() == dim);
  TARGAD_CHECK(!config_.use_oe || anomaly_x.rows() == 0 ||
               anomaly_x.cols() == dim);
  nn::Matrix epoch_x(pool.size(), dim);
  for (size_t p = 0; p < pool.size(); ++p) {
    const nn::Matrix* src = nullptr;
    switch (pool[p].role) {
      case Role::kLabeled: src = &labeled_x; break;
      case Role::kNormalCand: src = &normal_x; break;
      case Role::kAnomalyCand: src = &anomaly_x; break;
    }
    std::copy_n(src->RowPtr(pool[p].index), dim, epoch_x.RowPtr(p));
  }

  for (size_t start = 0; start < pool.size(); start += config_.batch_size) {
    const size_t end = std::min(pool.size(), start + config_.batch_size);

    size_t nl = 0, nn_count = 0, na = 0;
    for (size_t p = start; p < end; ++p) {
      switch (pool[p].role) {
        case Role::kLabeled: ++nl; break;
        case Role::kNormalCand: ++nn_count; break;
        case Role::kAnomalyCand: ++na; break;
      }
    }
    const size_t batch_rows = end - start;

    const nn::RowBlock batch = epoch_x.RowBlock(start, batch_rows);
    nn::Matrix logits = mlp_->Forward(batch);
    nn::Matrix grad(batch_rows, total_cols, 0.0);
    double step_ce = 0.0, step_oe = 0.0, step_re = 0.0;

    // Accumulates a per-role gradient block into its contiguous slot of the
    // batch gradient. += 1.0*x is bit-identical to the historical += x.
    auto scatter = [&](const nn::Matrix& part, size_t row_offset) {
      nn::kernels::Axpy(part.size(), 1.0, part.data().data(),
                        grad.RowPtr(row_offset));
    };

    // Each term averages over its own set, as Eq. (3)/(6) define it, so a
    // labeled anomaly carries |D_U^N|/|D_L| times the gradient weight of a
    // normal candidate.

    // L_CE on labeled target anomalies.
    if (nl > 0) {
      std::vector<int> classes(nl);
      for (size_t i = 0; i < nl; ++i) {
        classes[i] = labeled_class[pool[start + i].index];
      }
      nn::Matrix targets = TargetPseudoLabelRows(classes, m_, k_);
      nn::LossResult ce = nn::WeightedSoftCrossEntropy(
          logits.RowBlock(0, nl), targets, {}, static_cast<double>(nl));
      step_ce += ce.loss;
      scatter(ce.grad, 0);
    }

    // L_CE on normal candidates.
    if (nn_count > 0) {
      std::vector<int> clusters(nn_count);
      for (size_t i = 0; i < nn_count; ++i) {
        clusters[i] = normal_cluster[pool[start + nl + i].index];
      }
      nn::Matrix targets = NormalPseudoLabelRows(clusters, m_, k_);
      nn::LossResult ce = nn::WeightedSoftCrossEntropy(
          logits.RowBlock(nl, nn_count), targets, {},
          static_cast<double>(nn_count));
      step_ce += ce.loss;
      scatter(ce.grad, nl);
    }

    // L_OE on non-target anomaly candidates, scaled by lambda1 and the
    // Eq. (4)/(5) instance weights.
    if (na > 0 && config_.use_oe) {
      nn::Matrix targets = NonTargetPseudoLabelRows(na, m_, k_);
      std::vector<double> w(na);
      for (size_t i = 0; i < na; ++i) {
        w[i] = anomaly_weights[pool[start + nl + nn_count + i].index];
      }
      nn::LossResult oe = nn::WeightedSoftCrossEntropy(
          logits.RowBlock(nl + nn_count, na), targets, w,
          static_cast<double>(na));
      step_oe = oe.loss;
      oe.grad.MulInPlace(config_.lambda1);
      scatter(oe.grad, nl + nn_count);
    }

    // L_RE on D_L ∪ D_U^N rows, scaled by lambda2.
    if ((nl + nn_count) > 0 && config_.use_re) {
      nn::LossResult re =
          nn::SoftmaxEntropy(logits.RowBlock(0, nl + nn_count),
                             static_cast<double>(nl + nn_count));
      step_re = re.loss;
      re.grad.MulInPlace(config_.lambda2);
      scatter(re.grad, 0);
    }

    mlp_->StepOnGrad(grad);

    epoch.ce += step_ce;
    epoch.oe += step_oe;
    epoch.re += step_re;
    epoch.total +=
        step_ce + config_.lambda1 * step_oe + config_.lambda2 * step_re;
    ++steps;
  }

  if (steps > 0) {
    const double inv = 1.0 / static_cast<double>(steps);
    epoch.total *= inv;
    epoch.ce *= inv;
    epoch.oe *= inv;
    epoch.re *= inv;
  }
  return epoch;
}

}  // namespace core
}  // namespace targad
