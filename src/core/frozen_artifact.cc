// FrozenScorer <-> flat artifact (".tgz1") conversion. The artifact's meta
// blob carries the schema half of a frozen scorer as text (label/column
// names, class names, m/k, per-step activations, the fitted one-hot
// encoder); the numeric half — weights, biases, normalizer mins/ranges —
// is stored as aligned tensor sections holding the ALREADY-CAST dtype-T
// values. Loading therefore reproduces the frozen plan bit for bit: the
// steps point straight into the artifact's load buffer (no copy past the
// read), and the tiny mins/ranges vectors are memcpy-equivalent copies of
// the bytes the saving scorer computed. No arithmetic happens on either
// path.
//
// The meta blob is untrusted input — its checksum detects corruption, not a
// hostile writer, since anyone can recompute it — so LoadArtifact never
// sizes a container from a count read out of it.
//
// Meta blob layout ("targad-frozen-meta-v1", whitespace-separated, strings
// as <len>:<bytes> tokens):
//   label_column unlabeled_value
//   num_feature_columns column...
//   num_class_names name...
//   m k
//   num_steps { act_id leaky_slope }...
//   <OneHotEncoder::Save text>
// Tensor sections, in order: per step weight (in x out) then bias (1 x
// out), followed by mins (1 x d) and ranges (1 x d).

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <utility>
#include <vector>

#include "core/frozen_scorer.h"
#include "nn/artifact.h"

namespace targad {
namespace core {

namespace {

constexpr char kMetaVersion[] = "targad-frozen-meta-v1";

int ActivationId(nn::Activation act) { return static_cast<int>(act); }

Result<nn::Activation> ActivationFromId(int id) {
  switch (id) {
    case static_cast<int>(nn::Activation::kReLU): return nn::Activation::kReLU;
    case static_cast<int>(nn::Activation::kLeakyReLU):
      return nn::Activation::kLeakyReLU;
    case static_cast<int>(nn::Activation::kSigmoid):
      return nn::Activation::kSigmoid;
    case static_cast<int>(nn::Activation::kTanh): return nn::Activation::kTanh;
    case static_cast<int>(nn::Activation::kNone): return nn::Activation::kNone;
  }
  return Status::InvalidArgument("artifact meta: unknown activation id ", id);
}

}  // namespace

Status FrozenScorer::SaveArtifact(const std::string& path) const {
  return std::visit(
      [&](const auto& model) -> Status {
        std::ostringstream meta;
        meta << kMetaVersion << '\n';
        data::WriteStringToken(meta, spec_.label_column);
        meta << ' ';
        data::WriteStringToken(meta, spec_.unlabeled_value);
        meta << '\n' << spec_.feature_columns.size();
        for (const std::string& column : spec_.feature_columns) {
          meta << ' ';
          data::WriteStringToken(meta, column);
        }
        meta << '\n' << spec_.class_names.size();
        for (const std::string& name : spec_.class_names) {
          meta << ' ';
          data::WriteStringToken(meta, name);
        }
        meta << '\n' << spec_.m << ' ' << spec_.k << '\n';
        const auto& steps = model.net.steps();
        meta << steps.size() << '\n';
        meta << std::setprecision(17);
        for (const auto& step : steps) {
          // The slope round-trips exactly: T -> double text with 17
          // significant digits -> double -> T.
          meta << ActivationId(step.act) << ' '
               << static_cast<double>(step.leaky_slope) << '\n';
        }
        TARGAD_RETURN_NOT_OK(spec_.encoder.Save(meta));

        nn::ArtifactWriter writer(dtype_);
        writer.set_meta(meta.str());
        for (const auto& step : steps) {
          writer.AddTensor(step.in, step.out, step.weight);
          writer.AddTensor(1, step.out, step.bias);
        }
        writer.AddTensor(1, model.mins.size(), model.mins.data());
        writer.AddTensor(1, model.ranges.size(), model.ranges.data());
        return writer.WriteFile(path);
      },
      model_);
}

template <typename T>
Result<FrozenScorer::Typed<T>> FrozenScorer::BuildTyped(
    const nn::LoadedArtifact& artifact,
    const std::vector<std::pair<int, double>>& step_meta) {
  const size_t expected = step_meta.size() * 2 + 2;
  if (artifact.num_sections() != expected) {
    return Status::InvalidArgument("artifact: has ", artifact.num_sections(),
                                   " sections, meta describes ", expected);
  }
  std::vector<nn::FrozenStepT<T>> steps(step_meta.size());
  for (size_t i = 0; i < step_meta.size(); ++i) {
    const auto& weight = artifact.section(2 * i);
    const auto& bias = artifact.section(2 * i + 1);
    if (bias.rows != 1 || bias.cols != weight.cols) {
      return Status::InvalidArgument("artifact: step ", i, " bias is ",
                                     bias.rows, "x", bias.cols,
                                     ", weight is ", weight.rows, "x",
                                     weight.cols);
    }
    TARGAD_ASSIGN_OR_RETURN(nn::Activation act,
                            ActivationFromId(step_meta[i].first));
    steps[i].weight = static_cast<const T*>(weight.data);
    steps[i].bias = static_cast<const T*>(bias.data);
    steps[i].in = weight.rows;
    steps[i].out = weight.cols;
    steps[i].act = act;
    steps[i].leaky_slope = static_cast<T>(step_meta[i].second);
  }
  TARGAD_ASSIGN_OR_RETURN(nn::FrozenNetT<T> net,
                          nn::FrozenNetT<T>::FromSteps(std::move(steps)));

  const auto& mins = artifact.section(expected - 2);
  const auto& ranges = artifact.section(expected - 1);
  if (mins.rows != 1 || ranges.rows != 1 || mins.cols != ranges.cols) {
    return Status::InvalidArgument(
        "artifact: normalizer sections are ", mins.rows, "x", mins.cols,
        " and ", ranges.rows, "x", ranges.cols, ", expected matching 1xd");
  }
  if (net.input_dim() != mins.cols) {
    return Status::InvalidArgument("artifact: network expects ",
                                   net.input_dim(), " features, normalizer has ",
                                   mins.cols);
  }
  const T* mins_data = static_cast<const T*>(mins.data);
  const T* ranges_data = static_cast<const T*>(ranges.data);
  FrozenScorer::Typed<T> typed{std::move(net),
                               std::vector<T>(mins_data, mins_data + mins.cols),
                               std::vector<T>(ranges_data,
                                              ranges_data + ranges.cols)};
  return typed;
}

Result<FrozenScorer> FrozenScorer::LoadArtifact(const std::string& path) {
  TARGAD_ASSIGN_OR_RETURN(std::shared_ptr<const nn::LoadedArtifact> artifact,
                          nn::LoadedArtifact::Load(path));

  std::istringstream meta{std::string(artifact->meta())};
  std::string version;
  if (!(meta >> version) || version != kMetaVersion) {
    return Status::InvalidArgument("artifact: ", path,
                                   ": unknown meta version '", version, "'");
  }
  // Every string goes through the bounded token reader and every list is
  // read element by element, so a count larger than the blob fails at the
  // first missing element, having allocated only what it read.
  auto read_token = [&](std::string* out) {
    const Status st = data::ReadStringToken(meta, out);
    if (st.ok()) return st;
    return Status::InvalidArgument("artifact: ", path, ": meta string: ",
                                   st.message());
  };
  Spec spec;
  TARGAD_RETURN_NOT_OK(read_token(&spec.label_column));
  TARGAD_RETURN_NOT_OK(read_token(&spec.unlabeled_value));
  size_t num_columns = 0;
  if (!(meta >> num_columns)) {
    return Status::InvalidArgument("artifact: ", path, ": bad column count");
  }
  for (size_t i = 0; i < num_columns; ++i) {
    TARGAD_RETURN_NOT_OK(read_token(&spec.feature_columns.emplace_back()));
  }
  size_t num_classes = 0;
  if (!(meta >> num_classes)) {
    return Status::InvalidArgument("artifact: ", path, ": bad class count");
  }
  for (size_t i = 0; i < num_classes; ++i) {
    TARGAD_RETURN_NOT_OK(read_token(&spec.class_names.emplace_back()));
  }
  size_t num_steps = 0;
  if (!(meta >> spec.m >> spec.k >> num_steps) || spec.m <= 0 ||
      spec.k <= 0) {
    return Status::InvalidArgument("artifact: ", path,
                                   ": bad m/k/step counts");
  }
  std::vector<std::pair<int, double>> step_meta;
  for (size_t i = 0; i < num_steps; ++i) {
    int act_id = 0;
    double slope = 0.0;
    if (!(meta >> act_id >> slope)) {
      return Status::InvalidArgument("artifact: ", path,
                                     ": truncated step list");
    }
    step_meta.emplace_back(act_id, slope);
  }
  TARGAD_ASSIGN_OR_RETURN(spec.encoder, data::OneHotEncoder::Load(meta));

  FrozenScorer scorer;
  scorer.dtype_ = artifact->dtype();
  if (artifact->dtype() == nn::Dtype::kFloat32) {
    TARGAD_ASSIGN_OR_RETURN(Typed<float> typed,
                            BuildTyped<float>(*artifact, step_meta));
    scorer.model_ = std::move(typed);
  } else {
    TARGAD_ASSIGN_OR_RETURN(Typed<double> typed,
                            BuildTyped<double>(*artifact, step_meta));
    scorer.model_ = std::move(typed);
  }

  const auto output_dim = std::visit(
      [](const auto& m) { return m.net.output_dim(); }, scorer.model_);
  // Summed in size_t: m and k near INT_MAX must not overflow an int.
  const size_t logits =
      static_cast<size_t>(spec.m) + static_cast<size_t>(spec.k);
  if (output_dim != logits) {
    return Status::InvalidArgument("artifact: ", path, ": network emits ",
                                   output_dim, " logits, expected m+k = ",
                                   logits);
  }
  TARGAD_RETURN_NOT_OK(CheckSchema(
      spec,
      std::visit([](const auto& m) { return m.mins.size(); }, scorer.model_)));
  scorer.spec_ = std::move(spec);
  scorer.backing_ = artifact;  // Pins the buffer for the scorer's lifetime.
  return scorer;
}

}  // namespace core
}  // namespace targad
