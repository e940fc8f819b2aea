#include "core/candidate_selection.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "test_util.h"

namespace targad {
namespace core {
namespace {

class CandidateSelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bundle_ = targad::testing::TinyBundle(11, /*contamination=*/0.08);
  }

  // Same seeds per cluster and per elbow fit -> the same selection, bit for
  // bit, with or without the thread pools.
  void ExpectSequentialMatchesParallel(CandidateSelectionConfig config) {
    config.parallel = true;
    auto par = SelectCandidates(bundle_.train.unlabeled_x,
                                bundle_.train.labeled_x, config)
                   .ValueOrDie();
    config.parallel = false;
    auto seq = SelectCandidates(bundle_.train.unlabeled_x,
                                bundle_.train.labeled_x, config)
                   .ValueOrDie();
    EXPECT_EQ(par.k, seq.k);
    EXPECT_EQ(par.cluster, seq.cluster);
    ASSERT_EQ(par.recon_error.size(), seq.recon_error.size());
    for (size_t i = 0; i < par.recon_error.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(par.recon_error[i]),
                std::bit_cast<uint64_t>(seq.recon_error[i]))
          << "row " << i;
    }
    EXPECT_EQ(par.anomaly_candidates, seq.anomaly_candidates);
  }

  CandidateSelectionConfig FastConfig() {
    CandidateSelectionConfig config;
    config.k = 2;
    config.alpha = 0.08;
    config.autoencoder.encoder_dims = {16, 6};
    config.autoencoder.epochs = 15;
    config.seed = 5;
    return config;
  }

  data::DatasetBundle bundle_;
};

TEST_F(CandidateSelectionTest, SplitsRespectAlpha) {
  auto sel = SelectCandidates(bundle_.train.unlabeled_x, bundle_.train.labeled_x,
                              FastConfig())
                 .ValueOrDie();
  const size_t n = bundle_.train.num_unlabeled();
  EXPECT_EQ(sel.anomaly_candidates.size(),
            static_cast<size_t>(std::llround(0.08 * static_cast<double>(n))));
  EXPECT_EQ(sel.anomaly_candidates.size() + sel.normal_candidates.size(), n);
}

TEST_F(CandidateSelectionTest, CandidateSetsAreDisjointAndComplete) {
  auto sel = SelectCandidates(bundle_.train.unlabeled_x, bundle_.train.labeled_x,
                              FastConfig())
                 .ValueOrDie();
  std::set<size_t> all(sel.anomaly_candidates.begin(),
                       sel.anomaly_candidates.end());
  for (size_t i : sel.normal_candidates) {
    EXPECT_EQ(all.count(i), 0u);
    all.insert(i);
  }
  EXPECT_EQ(all.size(), bundle_.train.num_unlabeled());
}

TEST_F(CandidateSelectionTest, AnomalyCandidatesHaveHighestErrors) {
  auto sel = SelectCandidates(bundle_.train.unlabeled_x, bundle_.train.labeled_x,
                              FastConfig())
                 .ValueOrDie();
  double min_anom = 1e300, max_norm = -1e300;
  for (size_t i : sel.anomaly_candidates) {
    min_anom = std::min(min_anom, sel.recon_error[i]);
  }
  for (size_t i : sel.normal_candidates) {
    max_norm = std::max(max_norm, sel.recon_error[i]);
  }
  EXPECT_GE(min_anom, max_norm);
}

TEST_F(CandidateSelectionTest, ClusterAssignmentsValid) {
  auto sel = SelectCandidates(bundle_.train.unlabeled_x, bundle_.train.labeled_x,
                              FastConfig())
                 .ValueOrDie();
  EXPECT_EQ(sel.k, 2);
  EXPECT_EQ(sel.cluster.size(), bundle_.train.num_unlabeled());
  for (int c : sel.cluster) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, sel.k);
  }
}

TEST_F(CandidateSelectionTest, CandidatesEnrichedInTrueAnomalies) {
  auto sel = SelectCandidates(bundle_.train.unlabeled_x, bundle_.train.labeled_x,
                              FastConfig())
                 .ValueOrDie();
  const auto& truth = bundle_.train.unlabeled_truth;
  size_t anomalies_in_candidates = 0;
  for (size_t i : sel.anomaly_candidates) {
    if (truth[i] != data::InstanceKind::kNormal) ++anomalies_in_candidates;
  }
  size_t total_anomalies = 0;
  for (auto k : truth) {
    if (k != data::InstanceKind::kNormal) ++total_anomalies;
  }
  const double base_rate = static_cast<double>(total_anomalies) /
                           static_cast<double>(truth.size());
  const double candidate_rate =
      static_cast<double>(anomalies_in_candidates) /
      static_cast<double>(sel.anomaly_candidates.size());
  // The selector must beat random selection by a wide margin.
  EXPECT_GT(candidate_rate, 3.0 * base_rate);
}

TEST_F(CandidateSelectionTest, ElbowSelectionRuns) {
  CandidateSelectionConfig config = FastConfig();
  config.k = 0;  // Elbow over [2, 4].
  config.elbow_k_min = 2;
  config.elbow_k_max = 4;
  auto sel = SelectCandidates(bundle_.train.unlabeled_x, bundle_.train.labeled_x,
                              config)
                 .ValueOrDie();
  EXPECT_GE(sel.k, 2);
  EXPECT_LE(sel.k, 4);
}

TEST_F(CandidateSelectionTest, SequentialMatchesParallel) {
  ExpectSequentialMatchesParallel(FastConfig());
}

TEST_F(CandidateSelectionTest, SequentialMatchesParallelWithElbow) {
  CandidateSelectionConfig config = FastConfig();
  config.k = 0;  // Elbow over [2, 6].
  config.elbow_k_min = 2;
  config.elbow_k_max = 6;
  ExpectSequentialMatchesParallel(config);
}

TEST_F(CandidateSelectionTest, RejectsBadInputs) {
  CandidateSelectionConfig config = FastConfig();
  config.alpha = 0.0;
  EXPECT_FALSE(SelectCandidates(bundle_.train.unlabeled_x,
                                bundle_.train.labeled_x, config)
                   .ok());
  config = FastConfig();
  config.alpha = 1.0;
  EXPECT_FALSE(SelectCandidates(bundle_.train.unlabeled_x,
                                bundle_.train.labeled_x, config)
                   .ok());
  config = FastConfig();
  EXPECT_FALSE(SelectCandidates(nn::Matrix(0, 8), bundle_.train.labeled_x,
                                config)
                   .ok());
  config = FastConfig();
  config.k = 100000;
  EXPECT_FALSE(SelectCandidates(bundle_.train.unlabeled_x,
                                bundle_.train.labeled_x, config)
                   .ok());
}

TEST_F(CandidateSelectionTest, PerEpochLossesRecorded) {
  auto sel = SelectCandidates(bundle_.train.unlabeled_x, bundle_.train.labeled_x,
                              FastConfig())
                 .ValueOrDie();
  ASSERT_EQ(sel.ae_epoch_losses.size(), 2u);
  for (const auto& losses : sel.ae_epoch_losses) {
    EXPECT_EQ(losses.size(), 15u);
  }
}

}  // namespace
}  // namespace core
}  // namespace targad
