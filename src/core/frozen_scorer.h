// FrozenScorer: the serving representation of a fitted TargAdPipeline, and
// the only one the serving stack holds — the whole RawTable -> S^tar path
// (one-hot encoding, min-max normalization, fused MLP forward, softmax
// score head) executed in the plan's dtype. Built by
// TargAdPipeline::Freeze(Dtype) or loaded from a ".tgz1" (LoadArtifact);
// holds no training state, so a snapshot is immutable and scores from any
// number of threads concurrently.
//
// Exactness contract: Freeze(kFloat64) reproduces TargAdPipeline::Score
// bit-for-bit. Freeze(kFloat32) runs the identical arithmetic in float32;
// frozen_calibration_test bounds the score and AUROC drift.
//
// Consistent by construction: Make and LoadArtifact reject every schema the
// one-pass record walk (ScoreRecords) cannot encode exactly, so a scorer
// that exists never needs a second record path.

#ifndef TARGAD_CORE_FROZEN_SCORER_H_
#define TARGAD_CORE_FROZEN_SCORER_H_

#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "core/scorer.h"
#include "data/preprocess.h"
#include "nn/frozen.h"

namespace targad {
namespace nn {
class LoadedArtifact;  // nn/artifact.h; only frozen_artifact.cc needs it.
}  // namespace nn

namespace core {

/// Dtype-frozen RawTable scorer with the same Score contract as the
/// training pipeline.
class FrozenScorer : public RowScorer {
 public:
  /// Everything a frozen scorer needs besides the network: the fitted
  /// preprocessing and the label/schema metadata. Assembled by
  /// TargAdPipeline::Freeze.
  struct Spec {
    std::string label_column;
    std::string unlabeled_value;
    std::vector<std::string> feature_columns;
    std::vector<std::string> class_names;
    data::OneHotEncoder encoder;
    /// MinMaxNormalizer statistics: read by Make, which converts them to
    /// the plan dtype; left empty by LoadArtifact.
    std::vector<double> mins;
    std::vector<double> maxs;
    int m = 0;
    int k = 0;
  };

  /// Freezes `net` (the fitted classifier MLP) at `dtype` and converts the
  /// normalizer statistics once to the same dtype. InvalidArgument when the
  /// spec fails CheckSchema or the network's shape does not fit it.
  [[nodiscard]] static Result<FrozenScorer> Make(Spec spec, const nn::Sequential& net,
                                   nn::Dtype dtype);

  /// S^tar per row, computed end to end in the plan's dtype.
  [[nodiscard]] Result<std::vector<double>> Score(
      const data::RawTable& table) const override;

  /// Encodes each record straight into its feature row, then runs the
  /// same normalize/infer/softmax tail as Score.
  [[nodiscard]] std::vector<Result<double>> ScoreRecords(
      const std::vector<Record>& records) const override;

  const std::vector<std::string>& feature_columns() const override {
    return spec_.feature_columns;
  }
  const std::string& label_column() const override {
    return spec_.label_column;
  }

  nn::Dtype dtype() const { return dtype_; }
  int m() const { return spec_.m; }
  int k() const { return spec_.k; }
  const std::vector<std::string>& class_names() const {
    return spec_.class_names;
  }

  /// Serializes this frozen scorer into a flat ".tgz1" artifact:
  /// the schema/preprocessing metadata as the artifact's meta blob and the
  /// already-cast dtype parameters as aligned tensor sections, so a
  /// LoadArtifact of the file scores bit-identically to this scorer.
  [[nodiscard]] Status SaveArtifact(const std::string& path) const;

  /// Reads `path` into one owned buffer, validates it once (checksum,
  /// shapes, CheckSchema), and builds the scorer by pointer fixup over that
  /// buffer — weights are not copied again. The returned scorer (and every
  /// snapshot copy of it) pins the buffer until the last reference drops,
  /// so in-flight scores stay valid across a registry eviction, a
  /// republish, or any later write to the file.
  [[nodiscard]] static Result<FrozenScorer> LoadArtifact(
      const std::string& path);

  /// True when this scorer borrows a loaded artifact's buffer
  /// (LoadArtifact); false for Freeze-built scorers whose nets own their
  /// arena.
  bool from_artifact() const { return backing_ != nullptr; }

 private:
  /// The dtype-specific half: frozen net plus normalizer statistics
  /// converted once at freeze time.
  template <typename T>
  struct Typed {
    nn::FrozenNetT<T> net;
    std::vector<T> mins;
    std::vector<T> ranges;  ///< maxs - mins, precomputed in double.
  };

  FrozenScorer() = default;

  /// The schema checks Make and LoadArtifact share: the encoder is fitted,
  /// encodes exactly the feature columns, emits `normalized_dim` features,
  /// and the label column is not a feature. InvalidArgument otherwise.
  [[nodiscard]] static Status CheckSchema(const Spec& spec,
                                          size_t normalized_dim);

  template <typename T>
  [[nodiscard]] Result<std::vector<double>> ScoreTyped(const Typed<T>& model,
                                         const data::RawTable& features) const;

  template <typename T>
  [[nodiscard]] std::vector<Result<double>> ScoreRecordsTyped(
      const Typed<T>& model, const std::vector<Record>& records) const;

  /// The tail Score and ScoreRecords share: normalizes the encoded rows in
  /// place, infers, and returns S^tar per row.
  template <typename T>
  [[nodiscard]] std::vector<double> ScoreEncoded(const Typed<T>& model,
                                                 nn::MatrixT<T>* encoded) const;

  /// LoadArtifact's dtype-typed half: views over the loaded sections plus
  /// copies of the small normalizer vectors. `step_meta` is the
  /// (activation id, leaky slope) list parsed from the meta blob.
  template <typename T>
  [[nodiscard]] static Result<Typed<T>> BuildTyped(
      const nn::LoadedArtifact& artifact,
      const std::vector<std::pair<int, double>>& step_meta);

  Spec spec_;
  nn::Dtype dtype_ = nn::Dtype::kFloat64;
  std::variant<Typed<double>, Typed<float>> model_;
  /// Keeps the loaded artifact's buffer alive while any copy of this scorer
  /// (or a net view into it) exists; null for Freeze-built scorers.
  std::shared_ptr<const void> backing_;
};

}  // namespace core
}  // namespace targad

#endif  // TARGAD_CORE_FROZEN_SCORER_H_
