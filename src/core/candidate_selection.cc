#include "core/candidate_selection.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cluster/elbow.h"
#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace targad {
namespace core {

Result<CandidateSelection> SelectCandidates(const nn::Matrix& unlabeled,
                                            const nn::Matrix& labeled,
                                            const CandidateSelectionConfig& config) {
  if (unlabeled.rows() == 0) {
    return Status::InvalidArgument("candidate selection: empty unlabeled pool");
  }
  if (config.alpha <= 0.0 || config.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1), got ", config.alpha);
  }

  CandidateSelection selection;

  // Line 1: cluster D_U into k groups.
  int k = config.k;
  if (k == 0) {
    TARGAD_ASSIGN_OR_RETURN(
        cluster::ElbowResult elbow,
        cluster::SelectKByElbow(unlabeled, config.elbow_k_min,
                                config.elbow_k_max, config.seed,
                                config.parallel));
    k = elbow.k;
  }
  if (static_cast<size_t>(k) > unlabeled.rows()) {
    return Status::InvalidArgument("k=", k, " exceeds unlabeled size ",
                                   unlabeled.rows());
  }
  std::vector<int> assignments;
  if (config.clusterer == Clusterer::kGmm) {
    cluster::GmmConfig gmm_config;
    gmm_config.k = k;
    gmm_config.seed = config.seed;
    TARGAD_ASSIGN_OR_RETURN(cluster::GmmResult gmm,
                            cluster::FitGmm(unlabeled, gmm_config));
    assignments = std::move(gmm.assignments);
  } else {
    cluster::KMeansConfig km_config;
    km_config.k = k;
    km_config.seed = config.seed;
    TARGAD_ASSIGN_OR_RETURN(cluster::KMeansResult km,
                            cluster::KMeans(unlabeled, km_config));
    assignments = std::move(km.assignments);
  }
  selection.k = k;
  selection.cluster = assignments;

  // Lines 2-5: one SAD autoencoder per cluster, trained in parallel; each
  // scores its own cluster's instances. (GMM hard assignments can leave a
  // cluster empty; such an autoencoder is simply skipped.)
  std::vector<std::vector<size_t>> cluster_rows(static_cast<size_t>(k));
  for (size_t i = 0; i < assignments.size(); ++i) {
    cluster_rows[static_cast<size_t>(assignments[i])].push_back(i);
  }
  selection.recon_error.assign(unlabeled.rows(), 0.0);
  selection.ae_epoch_losses.resize(static_cast<size_t>(k));

  std::vector<Status> statuses(static_cast<size_t>(k), Status::OK());
  auto train_one = [&](size_t i) {
    if (cluster_rows[i].empty()) return;  // Possible under GMM assignments.
    SadAutoencoderConfig ae_config = config.autoencoder;
    ae_config.input_dim = unlabeled.cols();
    ae_config.seed = config.seed * 1000003ULL + i;
    auto made = SadAutoencoder::Make(ae_config);
    if (!made.ok()) {
      statuses[i] = made.status();
      return;
    }
    SadAutoencoder sad = std::move(made).ValueOrDie();
    const nn::Matrix cluster_x = unlabeled.SelectRows(cluster_rows[i]);
    selection.ae_epoch_losses[i] = sad.Fit(cluster_x, labeled);
    const std::vector<double> errs = sad.ReconstructionErrors(cluster_x);
    for (size_t r = 0; r < cluster_rows[i].size(); ++r) {
      selection.recon_error[cluster_rows[i][r]] = errs[r];
    }
  };
  ThreadPool::ParallelFor(static_cast<size_t>(k), train_one,
                          config.parallel ? 0 : 1);
  for (const Status& st : statuses) TARGAD_RETURN_NOT_OK(st);

  // Lines 6-7: rank by reconstruction error; top alpha% -> D_U^A.
  std::vector<size_t> order(unlabeled.rows());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return selection.recon_error[a] > selection.recon_error[b];
  });
  size_t n_anom = static_cast<size_t>(std::llround(
      config.alpha * static_cast<double>(unlabeled.rows())));
  n_anom = std::clamp<size_t>(n_anom, 1, unlabeled.rows() - 1);
  selection.anomaly_candidates.assign(order.begin(),
                                      order.begin() + static_cast<long>(n_anom));
  selection.normal_candidates.assign(order.begin() + static_cast<long>(n_anom),
                                     order.end());
  return selection;
}

}  // namespace core
}  // namespace targad
