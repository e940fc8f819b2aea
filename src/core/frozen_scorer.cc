#include "core/frozen_scorer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/hot_path.h"

namespace targad {
namespace core {

namespace {

// Each record's score where its status is OK, else its status.
std::vector<Result<double>> RecordResults(std::vector<Status> status,
                                          const std::vector<double>& scores) {
  std::vector<Result<double>> results;
  results.reserve(status.size());
  for (size_t i = 0; i < status.size(); ++i) {
    if (status[i].ok()) {
      results.emplace_back(scores[i]);
    } else {
      results.emplace_back(std::move(status[i]));
    }
  }
  return results;
}

template <typename T>
std::vector<T> CastVector(const std::vector<double>& v) {
  std::vector<T> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = static_cast<T>(v[i]);
  return out;
}

}  // namespace

Status FrozenScorer::CheckSchema(const Spec& spec, size_t normalized_dim) {
  const data::OneHotEncoder& encoder = spec.encoder;
  const std::vector<std::string>& columns = spec.feature_columns;
  if (!encoder.fitted()) {
    return Status::InvalidArgument("frozen scorer: encoder is not fitted");
  }
  if (encoder.num_columns() != columns.size()) {
    return Status::InvalidArgument("frozen scorer: encoder has ",
                                   encoder.num_columns(), " columns, schema has ",
                                   columns.size(), " feature columns");
  }
  if (encoder.output_dim() != normalized_dim) {
    return Status::InvalidArgument("frozen scorer: encoder emits ",
                                   encoder.output_dim(),
                                   " features, normalizer has ", normalized_dim);
  }
  if (std::find(columns.begin(), columns.end(), spec.label_column) !=
      columns.end()) {
    return Status::InvalidArgument("frozen scorer: label column '",
                                   spec.label_column,
                                   "' is also a feature column");
  }
  return Status::OK();
}

Result<FrozenScorer> FrozenScorer::Make(Spec spec, const nn::Sequential& net,
                                        nn::Dtype dtype) {
  if (spec.m <= 0 || spec.k <= 0) {
    return Status::InvalidArgument("frozen scorer: m and k must be positive");
  }
  if (spec.mins.size() != spec.maxs.size()) {
    return Status::InvalidArgument(
        "frozen scorer: normalizer min/max size mismatch");
  }
  TARGAD_RETURN_NOT_OK(CheckSchema(spec, spec.mins.size()));
  // Ranges precomputed in double, exactly as MinMaxNormalizer::Transform
  // derives them per call, then converted once to the plan dtype.
  std::vector<double> ranges(spec.mins.size());
  for (size_t j = 0; j < ranges.size(); ++j) {
    ranges[j] = spec.maxs[j] - spec.mins[j];
  }

  FrozenScorer scorer;
  scorer.dtype_ = dtype;
  if (dtype == nn::Dtype::kFloat32) {
    TARGAD_ASSIGN_OR_RETURN(nn::FrozenNetF frozen, nn::FrozenNetF::Freeze(net));
    scorer.model_ = Typed<float>{std::move(frozen), CastVector<float>(spec.mins),
                                 CastVector<float>(ranges)};
  } else {
    TARGAD_ASSIGN_OR_RETURN(nn::FrozenNet frozen, nn::FrozenNet::Freeze(net));
    scorer.model_ =
        Typed<double>{std::move(frozen), spec.mins, std::move(ranges)};
  }

  const auto typed_input_dim = std::visit(
      [](const auto& m) { return m.net.input_dim(); }, scorer.model_);
  if (typed_input_dim != spec.mins.size()) {
    return Status::InvalidArgument("frozen scorer: network expects ",
                                   typed_input_dim, " features, normalizer has ",
                                   spec.mins.size());
  }
  const auto typed_output_dim = std::visit(
      [](const auto& m) { return m.net.output_dim(); }, scorer.model_);
  if (typed_output_dim != static_cast<size_t>(spec.m + spec.k)) {
    return Status::InvalidArgument("frozen scorer: network emits ",
                                   typed_output_dim, " logits, expected m+k = ",
                                   spec.m + spec.k);
  }
  scorer.spec_ = std::move(spec);
  return scorer;
}

template <typename T>
TARGAD_HOT_PATH Result<std::vector<double>> FrozenScorer::ScoreTyped(
    const Typed<T>& model, const data::RawTable& features) const {
  TARGAD_ASSIGN_OR_RETURN(nn::MatrixT<T> x,
                          spec_.encoder.template TransformT<T>(features));
  if (x.cols() != model.mins.size()) {
    return Status::InvalidArgument("frozen scorer: ", x.cols(),
                                   " encoded columns, fitted on ",
                                   model.mins.size());
  }
  return ScoreEncoded(model, &x);
}

// Not TARGAD_HOT_PATH: besides the per-row statuses, the record walk
// unescapes quoted fields into a scratch string. It needs no fallback:
// CheckSchema admitted only schemas it encodes exactly. The tail it shares
// with Score is hot.
template <typename T>
std::vector<Result<double>> FrozenScorer::ScoreRecordsTyped(
    const Typed<T>& model, const std::vector<Record>& records) const {
  nn::MatrixT<T> x;
  std::vector<Status> status = EncodeRecords(spec_.encoder, records, &x);
  return RecordResults(std::move(status), ScoreEncoded(model, &x));
}

template <typename T>
TARGAD_HOT_PATH std::vector<double> FrozenScorer::ScoreEncoded(
    const Typed<T>& model, nn::MatrixT<T>* encoded) const {
  nn::MatrixT<T>& x = *encoded;
  // Min-max normalization in the plan dtype — same expression shape as
  // MinMaxNormalizer::Transform, so the double plan is bit-identical.
  for (size_t i = 0; i < x.rows(); ++i) {
    T* row = x.RowPtr(i);
    for (size_t j = 0; j < x.cols(); ++j) {
      const T range = model.ranges[j];
      T v = range > T(0) ? (row[j] - model.mins[j]) / range : T(0);
      row[j] = std::clamp(v, T(0), T(1));
    }
  }

  const nn::MatrixT<T> logits = model.net.Infer(x);

  // S^tar (Eq. 9): max softmax probability over the first m logits. Mirrors
  // nn::SoftmaxRows + core::TargetAnomalyScores exactly: the softmax
  // normalizes over ALL m+k columns, then the head maxes over the first m.
  const size_t cols = logits.cols();
  const size_t m = static_cast<size_t>(spec_.m);
  std::vector<double> scores(logits.rows());
  std::vector<T> p(cols);
  for (size_t i = 0; i < logits.rows(); ++i) {
    const T* z = logits.RowPtr(i);
    T zmax = z[0];
    for (size_t j = 1; j < cols; ++j) zmax = std::max(zmax, z[j]);
    T denom = T(0);
    for (size_t j = 0; j < cols; ++j) {
      p[j] = std::exp(z[j] - zmax);
      denom += p[j];
    }
    for (size_t j = 0; j < cols; ++j) p[j] /= denom;
    T best = p[0];
    for (size_t j = 1; j < m; ++j) best = std::max(best, p[j]);
    scores[i] = static_cast<double>(best);
  }
  return scores;
}

Result<std::vector<double>> FrozenScorer::Score(
    const data::RawTable& table) const {
  const int label_col = data::FindColumn(table, spec_.label_column);
  if (label_col < 0) {
    // The serving common case: no label column present, nothing to drop —
    // score the caller's table directly instead of deep-copying every cell.
    if (table.column_names != spec_.feature_columns) {
      return Status::InvalidArgument(
          "frozen scorer: feature columns differ from the training schema");
    }
    return std::visit(
        [&](const auto& model) { return ScoreTyped(model, table); }, model_);
  }
  const data::RawTable features = data::DropColumn(table, label_col);
  if (features.column_names != spec_.feature_columns) {
    return Status::InvalidArgument(
        "frozen scorer: feature columns differ from the training schema");
  }
  return std::visit(
      [&](const auto& model) { return ScoreTyped(model, features); }, model_);
}

std::vector<Result<double>> FrozenScorer::ScoreRecords(
    const std::vector<Record>& records) const {
  return std::visit(
      [&](const auto& model) { return ScoreRecordsTyped(model, records); },
      model_);
}

}  // namespace core
}  // namespace targad
