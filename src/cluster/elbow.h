// Elbow-method selection of the clustering hyperparameter k
// (Section IV-C: "the value of k was selected based on the elbow method").

#ifndef TARGAD_CLUSTER_ELBOW_H_
#define TARGAD_CLUSTER_ELBOW_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "cluster/kmeans.h"

namespace targad {
namespace cluster {

struct ElbowResult {
  /// Chosen k.
  int k = 1;
  /// k-means inertia for each candidate k (parallel to `candidates`).
  std::vector<double> inertias;
  std::vector<int> candidates;
};

/// Runs k-means for k in [k_min, k_max] and picks the elbow: the candidate
/// maximizing the second difference of the inertia curve (the point where
/// adding a cluster stops paying off). With fewer than three candidates the
/// smallest k is returned. The range stops at x.rows(). The fits (k-means
/// seeded `seed + k`) run as ThreadPool::ParallelFor tasks, or inline on
/// the calling thread when `parallel` is false; either way the result is
/// bit-identical, and a failure reports the lowest failing k's error.
[[nodiscard]] Result<ElbowResult> SelectKByElbow(const nn::Matrix& x, int k_min, int k_max,
                                   uint64_t seed = 0, bool parallel = true);

}  // namespace cluster
}  // namespace targad

#endif  // TARGAD_CLUSTER_ELBOW_H_
