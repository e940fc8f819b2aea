// Candidate selection (Section III-B1, Algorithm 1 lines 1-7): k-means over
// the unlabeled pool, one SAD autoencoder per cluster (trained in parallel),
// reconstruction-error ranking, and the top-alpha% split into non-target
// anomaly candidates D_U^A vs normal candidates D_U^N.

#ifndef TARGAD_CORE_CANDIDATE_SELECTION_H_
#define TARGAD_CORE_CANDIDATE_SELECTION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/sad_autoencoder.h"
#include "nn/matrix.h"

namespace targad {
namespace core {

/// Grouping algorithm for the unlabeled pool.
enum class Clusterer {
  kKMeans,  // Algorithm 1's choice.
  kGmm,     // Diagonal-covariance EM mixture (extension): groups that
            // differ in scale as well as location.
};

struct CandidateSelectionConfig {
  /// k: number of clusters / autoencoders. 0 selects k by the elbow method
  /// over [elbow_k_min, elbow_k_max] (k-means inertia in both modes).
  int k = 0;
  Clusterer clusterer = Clusterer::kKMeans;
  int elbow_k_min = 2;
  int elbow_k_max = 8;
  /// alpha: fraction of the unlabeled pool flagged as non-target anomaly
  /// candidates (paper default 5%).
  double alpha = 0.05;
  /// Per-cluster autoencoder settings (input_dim/seed filled in per run).
  SadAutoencoderConfig autoencoder;
  /// Run the elbow's k-means fits and train the k autoencoders on a thread
  /// pool (Algorithm 1 trains them "in parallel"), each loop with
  /// min(tasks, hardware threads) threads; false runs both inline on the
  /// calling thread. The result is bit-identical either way.
  bool parallel = true;
  uint64_t seed = 0;
};

/// The output of candidate selection.
struct CandidateSelection {
  /// k actually used (after elbow selection).
  int k = 0;
  /// Cluster index of every unlabeled row.
  std::vector<int> cluster;
  /// S^Rec of every unlabeled row (Eq. 2).
  std::vector<double> recon_error;
  /// Indices (into the unlabeled pool) of the top-alpha% rows: D_U^A.
  std::vector<size_t> anomaly_candidates;
  /// The remaining indices: D_U^N.
  std::vector<size_t> normal_candidates;
  /// Mean per-epoch training loss of each autoencoder.
  std::vector<std::vector<double>> ae_epoch_losses;
};

/// Runs the full candidate-selection phase. `labeled` (the target
/// anomalies) regularizes each autoencoder via Eq. (1); it may be empty for
/// the eta = 0 ablation.
[[nodiscard]] Result<CandidateSelection> SelectCandidates(const nn::Matrix& unlabeled,
                                            const nn::Matrix& labeled,
                                            const CandidateSelectionConfig& config);

}  // namespace core
}  // namespace targad

#endif  // TARGAD_CORE_CANDIDATE_SELECTION_H_
