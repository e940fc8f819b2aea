#include "core/pipeline.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace targad {
namespace core {

Result<TargAdPipeline> TargAdPipeline::Train(const data::RawTable& table,
                                             const PipelineConfig& config) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("pipeline: empty training table");
  }
  const int label_col = data::FindColumn(table, config.label_column);
  if (label_col < 0) {
    return Status::InvalidArgument("pipeline: label column '",
                                   config.label_column, "' not found");
  }

  TargAdPipeline pipeline;
  pipeline.config_ = config;

  // Split rows into labeled target anomalies and the unlabeled pool.
  std::vector<size_t> labeled_rows, unlabeled_rows;
  std::vector<int> labeled_class;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const std::string label(Trim(table.rows[i][static_cast<size_t>(label_col)]));
    if (label.empty() || label == config.unlabeled_value) {
      unlabeled_rows.push_back(i);
      continue;
    }
    auto it = std::find(pipeline.class_names_.begin(),
                        pipeline.class_names_.end(), label);
    int cls;
    if (it == pipeline.class_names_.end()) {
      cls = static_cast<int>(pipeline.class_names_.size());
      pipeline.class_names_.push_back(label);
    } else {
      cls = static_cast<int>(it - pipeline.class_names_.begin());
    }
    labeled_rows.push_back(i);
    labeled_class.push_back(cls);
  }
  if (labeled_rows.empty()) {
    return Status::InvalidArgument("pipeline: no labeled target anomalies");
  }
  if (unlabeled_rows.empty()) {
    return Status::InvalidArgument("pipeline: no unlabeled rows");
  }

  // Fit preprocessing on the feature columns of the WHOLE training table.
  const data::RawTable features = data::DropColumn(table, label_col);
  pipeline.feature_columns_ = features.column_names;
  TARGAD_RETURN_NOT_OK(pipeline.encoder_.Fit(features));
  TARGAD_ASSIGN_OR_RETURN(nn::Matrix encoded, pipeline.encoder_.Transform(features));
  TARGAD_ASSIGN_OR_RETURN(nn::Matrix normalized,
                          pipeline.normalizer_.FitTransform(encoded));

  data::TrainingSet train;
  train.num_target_classes = static_cast<int>(pipeline.class_names_.size());
  train.labeled_x = normalized.SelectRows(labeled_rows);
  train.labeled_class = std::move(labeled_class);
  train.unlabeled_x = normalized.SelectRows(unlabeled_rows);

  TARGAD_ASSIGN_OR_RETURN(TargAD model, TargAD::Make(config.model));
  pipeline.model_ = std::make_unique<TargAD>(std::move(model));
  TARGAD_RETURN_NOT_OK(pipeline.model_->Fit(train));
  return pipeline;
}

Result<TargAdPipeline> TargAdPipeline::TrainFromCsv(const std::string& path,
                                                    const PipelineConfig& config) {
  TARGAD_ASSIGN_OR_RETURN(data::RawTable table, data::ReadCsv(path));
  return Train(table, config);
}

Result<nn::Matrix> TargAdPipeline::Featurize(const data::RawTable& table) const {
  const int label_col = data::FindColumn(table, config_.label_column);
  const data::RawTable features = data::DropColumn(table, label_col);
  if (features.column_names != feature_columns_) {
    return Status::InvalidArgument(
        "pipeline: feature columns differ from the training schema");
  }
  TARGAD_ASSIGN_OR_RETURN(nn::Matrix encoded, encoder_.Transform(features));
  return normalizer_.Transform(encoded);
}

Result<std::vector<double>> TargAdPipeline::Score(
    const data::RawTable& table) const {
  if (model_ == nullptr || !model_->fitted()) {
    return Status::FailedPrecondition("pipeline: model not trained");
  }
  TARGAD_ASSIGN_OR_RETURN(nn::Matrix x, Featurize(table));
  return model_->Score(x);
}

Result<std::vector<double>> TargAdPipeline::ScoreCsv(
    const std::string& path) const {
  TARGAD_ASSIGN_OR_RETURN(data::RawTable table, data::ReadCsv(path));
  return Score(table);
}

Result<FrozenScorer> TargAdPipeline::Freeze(nn::Dtype dtype) const {
  if (model_ == nullptr || !model_->fitted()) {
    return Status::FailedPrecondition("pipeline: model not trained");
  }
  FrozenScorer::Spec spec;
  spec.label_column = config_.label_column;
  spec.unlabeled_value = config_.unlabeled_value;
  spec.feature_columns = feature_columns_;
  spec.class_names = class_names_;
  spec.encoder = encoder_;
  spec.mins = normalizer_.mins();
  spec.maxs = normalizer_.maxs();
  spec.m = model_->m();
  spec.k = model_->k();
  return FrozenScorer::Make(std::move(spec),
                            model_->classifier().mlp().net(), dtype);
}

Status TargAdPipeline::Save(std::ostream& out) {
  if (model_ == nullptr || !model_->fitted()) {
    return Status::FailedPrecondition("pipeline: model not trained");
  }
  out << "targad-pipeline-v1\n";
  data::WriteStringToken(out, config_.label_column);
  out << ' ';
  data::WriteStringToken(out, config_.unlabeled_value);
  out << '\n' << feature_columns_.size() << '\n';
  for (const std::string& column : feature_columns_) {
    data::WriteStringToken(out, column);
    out << '\n';
  }
  out << class_names_.size() << '\n';
  for (const std::string& name : class_names_) {
    data::WriteStringToken(out, name);
    out << '\n';
  }
  TARGAD_RETURN_NOT_OK(encoder_.Save(out));
  TARGAD_RETURN_NOT_OK(normalizer_.Save(out));
  return model_->Save(out);
}

Result<TargAdPipeline> TargAdPipeline::Load(std::istream& in) {
  std::string magic;
  if (!(in >> magic) || magic != "targad-pipeline-v1") {
    return Status::InvalidArgument("not a targad-pipeline-v1 stream");
  }
  TargAdPipeline pipeline;
  TARGAD_RETURN_NOT_OK(
      data::ReadStringToken(in, &pipeline.config_.label_column));
  TARGAD_RETURN_NOT_OK(
      data::ReadStringToken(in, &pipeline.config_.unlabeled_value));
  // Lists are read element by element, so a count larger than the stream
  // fails at the first missing element, having allocated only what it read.
  size_t n_columns = 0;
  if (!(in >> n_columns) || n_columns > (1u << 20)) {
    return Status::InvalidArgument("pipeline: bad feature column count");
  }
  for (size_t i = 0; i < n_columns; ++i) {
    TARGAD_RETURN_NOT_OK(data::ReadStringToken(
        in, &pipeline.feature_columns_.emplace_back()));
  }
  size_t n_classes = 0;
  if (!(in >> n_classes) || n_classes > (1u << 16)) {
    return Status::InvalidArgument("pipeline: bad class count");
  }
  for (size_t i = 0; i < n_classes; ++i) {
    TARGAD_RETURN_NOT_OK(
        data::ReadStringToken(in, &pipeline.class_names_.emplace_back()));
  }
  TARGAD_ASSIGN_OR_RETURN(pipeline.encoder_, data::OneHotEncoder::Load(in));
  TARGAD_ASSIGN_OR_RETURN(pipeline.normalizer_, data::MinMaxNormalizer::Load(in));
  TARGAD_ASSIGN_OR_RETURN(TargAD model, TargAD::Load(in));
  pipeline.model_ = std::make_unique<TargAD>(std::move(model));
  return pipeline;
}

}  // namespace core
}  // namespace targad
