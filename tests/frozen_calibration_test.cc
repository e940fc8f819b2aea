// Calibration of the dtype-split serving path: the float64 frozen scorer
// must reproduce TargAdPipeline::Score bit-for-bit; the float32 scorer must
// reproduce its golden bits on every backend and stay inside explicit drift
// tolerances of the float64 scores — both on raw S^tar scores (max abs
// delta) and on the ranking metric the paper reports (AUROC).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/frozen_scorer.h"
#include "core/pipeline.h"
#include "eval/metrics.h"
#include "nn/frozen.h"
#include "nn/kernels/kernels.h"

namespace targad {
namespace core {
namespace {

// Mixed numeric/categorical table, like a transaction feed: two normal
// modes, one labeled fraud cluster.
data::RawTable MakeTrainingTable(uint64_t seed, size_t normals) {
  Rng rng(seed);
  data::RawTable table;
  table.column_names = {"amount", "rate", "channel", "label"};
  for (size_t i = 0; i < normals; ++i) {
    const bool mode = rng.Bernoulli(0.5);
    table.rows.push_back({FormatDouble(rng.Normal(mode ? 20.0 : 60.0, 4.0), 6),
                          FormatDouble(rng.Normal(0.3, 0.05), 6),
                          mode ? "web" : "pos", ""});
  }
  for (size_t i = 0; i < normals / 12 + 10; ++i) {
    table.rows.push_back({FormatDouble(rng.Normal(150.0, 5.0), 6),
                          FormatDouble(rng.Normal(0.9, 0.03), 6), "web",
                          "fraud"});
  }
  return table;
}

// Labeled evaluation rows: label 1 = drawn from the fraud cluster.
struct EvalRows {
  data::RawTable table;  // Feature columns only.
  std::vector<int> labels;
};

EvalRows MakeEvalRows(uint64_t seed, size_t n) {
  Rng rng(seed);
  EvalRows eval;
  eval.table.column_names = {"amount", "rate", "channel"};
  for (size_t i = 0; i < n; ++i) {
    const bool fraud = rng.Bernoulli(0.25);
    if (fraud) {
      eval.table.rows.push_back(
          {FormatDouble(rng.Normal(150.0, 5.0), 6),
           FormatDouble(rng.Normal(0.9, 0.03), 6), "web"});
    } else {
      const bool mode = rng.Bernoulli(0.5);
      eval.table.rows.push_back(
          {FormatDouble(rng.Normal(mode ? 20.0 : 60.0, 4.0), 6),
           FormatDouble(rng.Normal(0.3, 0.05), 6), mode ? "web" : "pos"});
    }
    eval.labels.push_back(fraud ? 1 : 0);
  }
  return eval;
}

TargAdPipeline TrainPipeline(uint64_t seed) {
  PipelineConfig config;
  config.model.seed = seed;
  config.model.selection.k = 2;
  config.model.selection.autoencoder.epochs = 8;
  config.model.epochs = 12;
  return TargAdPipeline::Train(MakeTrainingTable(seed, 500), config)
      .ValueOrDie();
}

TEST(FrozenCalibrationTest, Float64FreezeIsBitIdenticalToPipeline) {
  const TargAdPipeline pipeline = TrainPipeline(3);
  auto frozen = pipeline.Freeze(nn::Dtype::kFloat64);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  EXPECT_EQ(frozen->dtype(), nn::Dtype::kFloat64);

  const EvalRows eval = MakeEvalRows(103, 400);
  const std::vector<double> exact = pipeline.Score(eval.table).ValueOrDie();
  const std::vector<double> via_frozen = frozen->Score(eval.table).ValueOrDie();
  ASSERT_EQ(exact.size(), via_frozen.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    // The acceptance bar: not close, EQUAL. The frozen path replays the
    // exact normalization, one-hot, inference, and softmax arithmetic.
    EXPECT_EQ(via_frozen[i], exact[i]) << "row " << i;
  }
}

TEST(FrozenCalibrationTest, Float32DriftStaysWithinTolerances) {
  const TargAdPipeline pipeline = TrainPipeline(4);
  auto frozen = pipeline.Freeze(nn::Dtype::kFloat32);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  EXPECT_EQ(frozen->dtype(), nn::Dtype::kFloat32);

  const EvalRows eval = MakeEvalRows(104, 600);
  const std::vector<double> exact = pipeline.Score(eval.table).ValueOrDie();
  const std::vector<double> narrow = frozen->Score(eval.table).ValueOrDie();
  ASSERT_EQ(exact.size(), narrow.size());

  double max_abs_delta = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    max_abs_delta = std::max(max_abs_delta, std::abs(narrow[i] - exact[i]));
  }
  // Scores are softmax probabilities in [0, 1]; float32 drift through the
  // small serving MLP stays far below any decision threshold granularity.
  EXPECT_LT(max_abs_delta, 1e-4) << "float32 score drift too large";
  EXPECT_GT(max_abs_delta, 0.0) << "suspiciously exact — float32 path unused?";

  const double auroc_exact = eval::Auroc(exact, eval.labels).ValueOrDie();
  const double auroc_narrow = eval::Auroc(narrow, eval.labels).ValueOrDie();
  // Ranking quality must be essentially unchanged.
  EXPECT_LT(std::abs(auroc_exact - auroc_narrow), 2e-3)
      << "exact=" << auroc_exact << " narrow=" << auroc_narrow;
  // Sanity: the model actually separates the fraud cluster, so the AUROC
  // comparison above is not vacuous (0.5 vs 0.5).
  EXPECT_GT(auroc_exact, 0.9);
}

// Float32 served scores are the scalar loops' bits on every backend and in
// every build (nn/kernels/kernels.h). The goldens are the bit patterns of
// this model's float32 FrozenScorer scores, captured on the scalar backend.
TEST(FrozenCalibrationTest, Float32ScoresMatchGoldenBitsOnEveryBackend) {
  const uint64_t kGolden[] = {
      0x3fe1a3ef60000000, 0x3f84bf9040000000, 0x3f853a5800000000,
      0x3f84c0a1e0000000, 0x3fe07f5360000000, 0x3fe09e9a80000000,
      0x3f8469db40000000, 0x3fefbac600000000, 0x3f849c17c0000000,
      0x3fefb99780000000, 0x3fe089bc80000000, 0x3fefce6e80000000,
      0x3fefae7f20000000, 0x3f84881ea0000000, 0x3fe05996a0000000,
      0x3f847d27a0000000,
  };
  const TargAdPipeline pipeline = TrainPipeline(7);
  auto frozen = pipeline.Freeze(nn::Dtype::kFloat32);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  const EvalRows eval = MakeEvalRows(107, std::size(kGolden));

  const nn::kernels::Backend saved = nn::kernels::ActiveBackend();
  for (nn::kernels::Backend backend :
       {nn::kernels::Backend::kScalar, nn::kernels::Backend::kAvx2}) {
    if (!nn::kernels::SetBackendForTest(backend)) continue;  // Not built in.
    SCOPED_TRACE(nn::kernels::BackendName(backend));
    const std::vector<double> scores = frozen->Score(eval.table).ValueOrDie();
    ASSERT_EQ(scores.size(), std::size(kGolden));
    for (size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(scores[i]), kGolden[i])
          << "row " << i << ": 0x" << std::hex
          << std::bit_cast<uint64_t>(scores[i]) << std::dec << " ("
          << scores[i] << ")";
    }
  }
  nn::kernels::SetBackendForTest(saved);
}

TEST(FrozenCalibrationTest, FrozenScorerKeepsSchemaAndRejectsMismatch) {
  const TargAdPipeline pipeline = TrainPipeline(5);
  auto frozen = pipeline.Freeze(nn::Dtype::kFloat32);
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(frozen->feature_columns(), pipeline.feature_columns());
  EXPECT_EQ(frozen->label_column(), pipeline.label_column());

  data::RawTable wrong;
  wrong.column_names = {"amount", "speed", "channel"};
  wrong.rows.push_back({"10", "0.5", "web"});
  auto scores = frozen->Score(wrong);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrozenCalibrationTest, FrozenScorerDropsLabelColumnLikeThePipeline) {
  const TargAdPipeline pipeline = TrainPipeline(6);
  auto frozen = pipeline.Freeze(nn::Dtype::kFloat64);
  ASSERT_TRUE(frozen.ok());

  EvalRows eval = MakeEvalRows(106, 50);
  data::RawTable with_label = eval.table;
  with_label.column_names.push_back("label");
  for (auto& row : with_label.rows) row.push_back("unlabeled");

  const std::vector<double> bare = frozen->Score(eval.table).ValueOrDie();
  const std::vector<double> labeled = frozen->Score(with_label).ValueOrDie();
  ASSERT_EQ(bare.size(), labeled.size());
  for (size_t i = 0; i < bare.size(); ++i) EXPECT_EQ(bare[i], labeled[i]);
}

TEST(FrozenCalibrationTest, FreezeBeforeFitFails) {
  TargADConfig config;
  auto model = TargAD::Make(config).ValueOrDie();
  auto plan = model.Freeze(nn::Dtype::kFloat32);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace core
}  // namespace targad
