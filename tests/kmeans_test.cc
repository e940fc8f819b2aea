#include "cluster/kmeans.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "cluster/elbow.h"
#include "common/rng.h"

namespace targad {
namespace cluster {
namespace {

// Three well-separated 2-D blobs.
nn::Matrix ThreeBlobs(size_t per_blob, uint64_t seed) {
  Rng rng(seed);
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  nn::Matrix x(3 * per_blob, 2);
  for (size_t b = 0; b < 3; ++b) {
    for (size_t i = 0; i < per_blob; ++i) {
      x.At(b * per_blob + i, 0) = rng.Normal(centers[b][0], 0.5);
      x.At(b * per_blob + i, 1) = rng.Normal(centers[b][1], 0.5);
    }
  }
  return x;
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  nn::Matrix x = ThreeBlobs(50, 1);
  KMeansConfig config;
  config.k = 3;
  config.seed = 2;
  auto result = KMeans(x, config).ValueOrDie();
  // Each blob must land in a single cluster, and the three clusters differ.
  std::set<int> blob_clusters;
  for (size_t b = 0; b < 3; ++b) {
    const int c0 = result.assignments[b * 50];
    for (size_t i = 0; i < 50; ++i) EXPECT_EQ(result.assignments[b * 50 + i], c0);
    blob_clusters.insert(c0);
  }
  EXPECT_EQ(blob_clusters.size(), 3u);
}

TEST(KMeansTest, InertiaIsSumOfSquaredDistances) {
  nn::Matrix x = ThreeBlobs(30, 3);
  KMeansConfig config;
  config.k = 3;
  auto result = KMeans(x, config).ValueOrDie();
  double manual = 0.0;
  for (size_t i = 0; i < x.rows(); ++i) {
    manual += x.RowSquaredDistance(
        i, result.centers, static_cast<size_t>(result.assignments[i]));
  }
  EXPECT_NEAR(result.inertia, manual, 1e-9);
}

TEST(KMeansTest, InertiaDecreasesWithK) {
  nn::Matrix x = ThreeBlobs(40, 4);
  double prev = 1e300;
  for (int k = 1; k <= 5; ++k) {
    KMeansConfig config;
    config.k = k;
    config.seed = 5;
    const double inertia = KMeans(x, config).ValueOrDie().inertia;
    EXPECT_LE(inertia, prev * 1.0001);
    prev = inertia;
  }
}

TEST(KMeansTest, SingleClusterCenterIsMean) {
  nn::Matrix x(4, 1, {1.0, 2.0, 3.0, 4.0});
  KMeansConfig config;
  config.k = 1;
  auto result = KMeans(x, config).ValueOrDie();
  EXPECT_NEAR(result.centers.At(0, 0), 2.5, 1e-12);
}

TEST(KMeansTest, EveryClusterNonEmpty) {
  // Two tight far-apart pairs of near-duplicates plus spread points make
  // empty clusters likely without the farthest-point re-seeding.
  nn::Matrix x(20, 1, 0.0);
  for (size_t i = 0; i < 20; ++i) {
    x.At(i, 0) = (i < 10 ? 0.0 : 100.0) + 0.001 * static_cast<double>(i);
  }
  KMeansConfig config;
  config.k = 4;
  config.seed = 6;
  auto result = KMeans(x, config).ValueOrDie();
  std::vector<int> counts(4, 0);
  for (int a : result.assignments) counts[static_cast<size_t>(a)]++;
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(KMeansTest, RejectsBadInputs) {
  nn::Matrix x(3, 2, 0.0);
  KMeansConfig config;
  config.k = 5;
  EXPECT_FALSE(KMeans(x, config).ok());  // k > rows.
  config.k = 0;
  EXPECT_FALSE(KMeans(x, config).ok());
  config.k = 2;
  EXPECT_FALSE(KMeans(nn::Matrix(3, 0), config).ok());
}

TEST(KMeansTest, DeterministicForSeed) {
  nn::Matrix x = ThreeBlobs(30, 7);
  KMeansConfig config;
  config.k = 3;
  config.seed = 11;
  auto r1 = KMeans(x, config).ValueOrDie();
  auto r2 = KMeans(x, config).ValueOrDie();
  EXPECT_EQ(r1.assignments, r2.assignments);
  EXPECT_DOUBLE_EQ(r1.inertia, r2.inertia);
}

TEST(KMeansTest, ClusterIndicesPartitionRows) {
  nn::Matrix x = ThreeBlobs(20, 8);
  KMeansConfig config;
  config.k = 3;
  auto result = KMeans(x, config).ValueOrDie();
  const auto indices = result.ClusterIndices();
  size_t total = 0;
  for (const auto& cluster : indices) total += cluster.size();
  EXPECT_EQ(total, x.rows());
}

TEST(AssignToCentersTest, PicksNearest) {
  nn::Matrix centers(2, 1, {0.0, 10.0});
  nn::Matrix x(3, 1, {1.0, 9.0, 4.9});
  const auto assign = AssignToCenters(x, centers);
  EXPECT_EQ(assign, (std::vector<int>{0, 1, 0}));
}

TEST(ElbowTest, FindsTrueBlobCount) {
  nn::Matrix x = ThreeBlobs(60, 9);
  auto elbow = SelectKByElbow(x, 1, 8, 10).ValueOrDie();
  EXPECT_EQ(elbow.k, 3);
}

TEST(ElbowTest, InertiasRecordedPerCandidate) {
  nn::Matrix x = ThreeBlobs(30, 10);
  auto elbow = SelectKByElbow(x, 2, 5).ValueOrDie();
  EXPECT_EQ(elbow.candidates.size(), 4u);
  EXPECT_EQ(elbow.inertias.size(), 4u);
}

// The elbow's fits run as ThreadPool tasks; the result must equal the
// inline scan (parallel = false) bit for bit, and each inertia must be that
// of a lone KMeans fit seeded `seed + k`.
void ExpectParallelMatchesInline(const nn::Matrix& x, int k_min, int k_max,
                                 uint64_t seed) {
  auto par = SelectKByElbow(x, k_min, k_max, seed, /*parallel=*/true);
  auto seq = SelectKByElbow(x, k_min, k_max, seed, /*parallel=*/false);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(par->k, seq->k);
  EXPECT_EQ(par->candidates, seq->candidates);
  ASSERT_EQ(par->inertias.size(), par->candidates.size());
  ASSERT_EQ(seq->inertias.size(), par->inertias.size());
  for (size_t i = 0; i < par->inertias.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(par->inertias[i]),
              std::bit_cast<uint64_t>(seq->inertias[i]))
        << "k = " << par->candidates[i];
    KMeansConfig config;
    config.k = par->candidates[i];
    config.seed = seed + static_cast<uint64_t>(config.k);
    EXPECT_EQ(std::bit_cast<uint64_t>(par->inertias[i]),
              std::bit_cast<uint64_t>(KMeans(x, config)->inertia))
        << "k = " << par->candidates[i];
  }
}

TEST(ElbowTest, ParallelMatchesInline) {
  ExpectParallelMatchesInline(ThreeBlobs(60, 9), 1, 8, 10);
  ExpectParallelMatchesInline(ThreeBlobs(40, 13), 2, 8, 0);
}

TEST(ElbowTest, ParallelMatchesInlineWhereRowsCutTheRange) {
  const nn::Matrix x = ThreeBlobs(2, 12);  // 6 rows: k stops at 6.
  ExpectParallelMatchesInline(x, 2, 8, 14);
  EXPECT_EQ(SelectKByElbow(x, 2, 8, 14)->candidates,
            (std::vector<int>{2, 3, 4, 5, 6}));
}

TEST(ElbowTest, FailureIsTheSameEitherWay) {
  // Every fit fails on 0-column data: the lowest k's error either way.
  const nn::Matrix no_columns(10, 0);
  // Fewer rows than k_min: no fit runs.
  const nn::Matrix few_rows = ThreeBlobs(1, 15);
  for (const nn::Matrix* x : {&no_columns, &few_rows}) {
    auto par = SelectKByElbow(*x, 4, 8, 3, /*parallel=*/true);
    auto seq = SelectKByElbow(*x, 4, 8, 3, /*parallel=*/false);
    ASSERT_FALSE(par.ok());
    ASSERT_FALSE(seq.ok());
    EXPECT_EQ(par.status().ToString(), seq.status().ToString());
  }
}

TEST(ElbowTest, RejectsBadRange) {
  nn::Matrix x = ThreeBlobs(10, 11);
  EXPECT_FALSE(SelectKByElbow(x, 0, 3).ok());
  EXPECT_FALSE(SelectKByElbow(x, 4, 2).ok());
}

}  // namespace
}  // namespace cluster
}  // namespace targad
