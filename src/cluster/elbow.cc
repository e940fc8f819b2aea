#include "cluster/elbow.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace targad {
namespace cluster {

Result<ElbowResult> SelectKByElbow(const nn::Matrix& x, int k_min, int k_max,
                                   uint64_t seed, bool parallel) {
  if (k_min < 1 || k_max < k_min) {
    return Status::InvalidArgument("bad elbow range [", k_min, ", ", k_max, "]");
  }
  // The range stops at the first k the data cannot hold.
  const int k_hi = static_cast<int>(
      std::min(static_cast<size_t>(k_max), x.rows()));
  if (k_hi < k_min) {
    return Status::InvalidArgument("no feasible k in range for ", x.rows(), " rows");
  }
  const auto n = static_cast<size_t>(k_hi - k_min + 1);
  ElbowResult result;
  result.candidates.resize(n);
  std::iota(result.candidates.begin(), result.candidates.end(), k_min);
  result.inertias.assign(n, 0.0);
  std::vector<Status> statuses(n, Status::OK());
  // Each fit is seeded by its own k and writes only its own slot, so the
  // inertias do not depend on which thread ran which fit. Largest k first:
  // those fits take longest.
  auto fit = [&](size_t task) {
    const size_t i = n - 1 - task;
    KMeansConfig config;
    config.k = result.candidates[i];
    config.seed = seed + static_cast<uint64_t>(config.k);
    Result<KMeansResult> km = KMeans(x, config);
    if (km.ok()) {
      result.inertias[i] = km.ValueOrDie().inertia;
    } else {
      statuses[i] = km.status();
    }
  };
  ThreadPool::ParallelFor(n, fit, parallel ? 0 : 1);
  // The lowest failing k's error, as a serial scan would stop on.
  for (const Status& st : statuses) TARGAD_RETURN_NOT_OK(st);

  result.k = result.candidates.front();
  if (result.candidates.size() >= 3) {
    double best_curvature = -1.0;
    for (size_t i = 1; i + 1 < result.inertias.size(); ++i) {
      const double second_diff = result.inertias[i - 1] - 2.0 * result.inertias[i] +
                                 result.inertias[i + 1];
      if (second_diff > best_curvature) {
        best_curvature = second_diff;
        result.k = result.candidates[i];
      }
    }
  }
  return result;
}

}  // namespace cluster
}  // namespace targad
