// TargAdPipeline: the production path from a raw CSV to a fitted TargAD
// model and back to scores — one-hot encoding, min-max normalization, label
// mapping, training, scoring, and persistence, in one object.
//
// Training CSV layout: feature columns plus one label column. Cells of the
// label column that are empty or equal to `unlabeled_value` mark unlabeled
// rows; every other distinct value is a target anomaly class (class ids
// assigned by first appearance). Scoring CSVs carry the same feature
// columns (the label column may be present — it is ignored — or absent).

#ifndef TARGAD_CORE_PIPELINE_H_
#define TARGAD_CORE_PIPELINE_H_

#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/frozen_scorer.h"
#include "core/targad.h"
#include "data/csv.h"
#include "data/preprocess.h"

namespace targad {
namespace core {

struct PipelineConfig {
  /// Name of the label column in the training CSV.
  std::string label_column = "label";
  /// Label cell value marking unlabeled rows (empty cells always qualify).
  std::string unlabeled_value = "unlabeled";
  /// Model configuration (paper defaults).
  TargADConfig model;
};

/// Preprocessing + model bundle fit from a CSV. Serving runs its frozen
/// form (Freeze), not the pipeline itself.
class TargAdPipeline {
 public:
  /// Fits encoder, normalizer, and model from a training table.
  [[nodiscard]] static Result<TargAdPipeline> Train(const data::RawTable& table,
                                      const PipelineConfig& config);

  /// Convenience: ReadCsv + Train.
  [[nodiscard]] static Result<TargAdPipeline> TrainFromCsv(const std::string& path,
                                             const PipelineConfig& config);

  /// Scores a table with the same feature columns as training (the label
  /// column, if present, is dropped). Returns S^tar per row. Const and
  /// thread-safe on a fitted pipeline.
  [[nodiscard]] Result<std::vector<double>> Score(const data::RawTable& table) const;

  /// Convenience: ReadCsv + Score.
  [[nodiscard]] Result<std::vector<double>> ScoreCsv(const std::string& path) const;

  /// Freezes the fitted pipeline into a self-contained serving scorer whose
  /// whole RawTable -> S^tar path runs in `dtype`. Freeze(kFloat64) scores
  /// bit-identically to Score; kFloat32 halves inference memory traffic at
  /// a calibrated drift (see frozen_calibration_test).
  [[nodiscard]] Result<FrozenScorer> Freeze(nn::Dtype dtype) const;

  /// Target class names in class-id order.
  const std::vector<std::string>& class_names() const { return class_names_; }

  /// Feature columns a scoring table must carry, in training order.
  const std::vector<std::string>& feature_columns() const {
    return feature_columns_;
  }

  /// Name of the (optional, ignored at scoring time) label column.
  const std::string& label_column() const { return config_.label_column; }

  TargAD& model() { return *model_; }
  const TargAD& model() const { return *model_; }

  /// Persists the whole pipeline (preprocessing schema + statistics, class
  /// names, fitted model) so a separate process can Load and Score.
  [[nodiscard]] Status Save(std::ostream& out);

  /// Restores a pipeline written by Save.
  [[nodiscard]] static Result<TargAdPipeline> Load(std::istream& in);

 private:
  TargAdPipeline() = default;

  /// Drops the label column (if present) and applies encoder + normalizer.
  [[nodiscard]] Result<nn::Matrix> Featurize(const data::RawTable& table) const;

  PipelineConfig config_;
  data::OneHotEncoder encoder_;
  data::MinMaxNormalizer normalizer_;
  std::vector<std::string> feature_columns_;
  std::vector<std::string> class_names_;
  std::unique_ptr<TargAD> model_;
};

}  // namespace core
}  // namespace targad

#endif  // TARGAD_CORE_PIPELINE_H_
