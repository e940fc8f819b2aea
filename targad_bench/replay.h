// Per-layer replays for traced runs. Where a layer's cost cannot be seen
// from the calls the workload makes, the harness calls that layer's public
// entry point again, alone, over the workload's own inputs, and reports
// the cost per row. Each replay repeats for at least `min_s` seconds.

#ifndef TARGAD_BENCH_HARNESS_REPLAY_H_
#define TARGAD_BENCH_HARNESS_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "nn/frozen.h"
#include "trace.h"

namespace targad {
namespace harness {

/// `table` without column `column` (a copy when it is absent).
data::RawTable WithoutColumn(const data::RawTable& table,
                             const std::string& column);

/// The pipeline's preprocessing (one-hot, then min-max), fit the way
/// TargAdPipeline::Train fits it on the training features.
struct Featurizer {
  data::OneHotEncoder encoder;
  data::MinMaxNormalizer normalizer;

  /// Fits both stages; `transformed`, when given, receives the
  /// preprocessed training features.
  [[nodiscard]] static Result<Featurizer> Fit(
      const data::RawTable& features, nn::Matrix* transformed = nullptr);
  [[nodiscard]] Result<nn::Matrix> Apply(const data::RawTable& rows) const;
};

/// net::FrameDecoder plus net::ParseRequest over the request bytes, fed in
/// 4 KiB reads as the server's poll thread receives them.
double DecodeNsPerRow(const std::vector<std::string>& lines, double min_s);

/// serve::SplitDataRecord over CSV records.
double RowParseNsPerRow(const std::vector<std::string>& records,
                        int label_col, double min_s);

/// Median wall time of core::FrozenScorer::LoadArtifact over `loads` loads.
double ArtifactMapUs(const std::string& path, int loads);

/// The model-side replays of a serving workload, over `rows` preprocessed
/// as a pipeline trained on `train_features` would: data.featurize_ns_per_row
/// (OneHotEncoder::TransformT in the plan's dtype), nn.infer_ns_per_row (the
/// frozen net's fused forward over 64-row batches, the serving batch size)
/// and nn.infer_flops_per_row (2 * in * out summed over the fused steps:
/// computed from the layer shapes, not measured). Each replay is a
/// "replay.*" span under `parent`.
[[nodiscard]] Status AddModelReplays(const data::RawTable& train_features,
                                     const data::RawTable& rows,
                                     const nn::InferencePlan& plan,
                                     double min_s, Tracer* tracer,
                                     uint64_t parent,
                                     std::map<std::string, double>* metrics);

}  // namespace harness
}  // namespace targad

#endif  // TARGAD_BENCH_HARNESS_REPLAY_H_
