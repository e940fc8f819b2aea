#include "core/targad.h"

#include "common/logging.h"
#include "core/weighting.h"
#include "eval/metrics.h"
#include "nn/serialize.h"

#include <string>
#include <utility>
#include <vector>

namespace targad {
namespace core {

const char* WeightModeName(WeightMode mode) {
  switch (mode) {
    case WeightMode::kDynamic: return "dynamic";
    case WeightMode::kFixedOnes: return "fixed-1";
    case WeightMode::kInitialOnly: return "initial-only";
  }
  return "?";
}

Result<TargAD> TargAD::Make(const TargADConfig& config) {
  if (config.epochs <= 0) {
    return Status::InvalidArgument("TargAD: epochs must be positive");
  }
  if (config.selection.alpha <= 0.0 || config.selection.alpha >= 1.0) {
    return Status::InvalidArgument("TargAD: alpha must be in (0, 1)");
  }
  TargAD model;
  model.config_ = config;
  return model;
}

Status TargAD::Fit(const data::TrainingSet& train, const EpochHook& hook) {
  return FitImpl(train, /*validation=*/nullptr, hook);
}

Status TargAD::FitWithValidation(const data::TrainingSet& train,
                                 const data::EvalSet& validation,
                                 const EpochHook& hook) {
  TARGAD_RETURN_NOT_OK(validation.Validate());
  if (validation.size() == 0) {
    return Status::InvalidArgument("FitWithValidation: empty validation set");
  }
  return FitImpl(train, &validation, hook);
}

Status TargAD::FitImpl(const data::TrainingSet& train,
                       const data::EvalSet* validation, const EpochHook& hook) {
  TARGAD_RETURN_NOT_OK(train.Validate());
  m_ = train.num_target_classes;

  // Phase 1: candidate selection (Algorithm 1, lines 1-7).
  CandidateSelectionConfig sel_config = config_.selection;
  sel_config.seed = config_.seed;
  TARGAD_ASSIGN_OR_RETURN(
      CandidateSelection selection,
      SelectCandidates(train.unlabeled_x, train.labeled_x, sel_config));
  k_ = selection.k;

  // Materialize the candidate matrices.
  const nn::Matrix anomaly_x = train.unlabeled_x.SelectRows(selection.anomaly_candidates);
  const nn::Matrix normal_x = train.unlabeled_x.SelectRows(selection.normal_candidates);
  std::vector<int> normal_cluster(selection.normal_candidates.size());
  for (size_t i = 0; i < selection.normal_candidates.size(); ++i) {
    normal_cluster[i] = selection.cluster[selection.normal_candidates[i]];
  }
  std::vector<double> candidate_recon(selection.anomaly_candidates.size());
  for (size_t i = 0; i < selection.anomaly_candidates.size(); ++i) {
    candidate_recon[i] = selection.recon_error[selection.anomaly_candidates[i]];
  }

  // Phase 2: classifier (Algorithm 1, lines 8-16).
  ClassifierConfig clf_config = config_.classifier;
  clf_config.seed = config_.seed ^ 0xC1A551F1EDULL;
  TARGAD_ASSIGN_OR_RETURN(
      TargAdClassifier clf,
      TargAdClassifier::Make(clf_config, train.dim(), m_, k_));
  classifier_ = std::make_unique<TargAdClassifier>(std::move(clf));

  diagnostics_ = TargADDiagnostics{};
  diagnostics_.selection = std::move(selection);

  Rng rng(config_.seed ^ 0xE90C4ULL);
  std::vector<double> weights;
  double best_val_auprc = -1.0;
  std::vector<nn::Matrix> best_params;
  // The validation labels never change across epochs; derive them once.
  const std::vector<int> val_labels =
      validation != nullptr ? validation->BinaryTargetLabels()
                            : std::vector<int>{};
  fitted_ = true;  // Scoring inside the hook is allowed from epoch 1 on.
  for (int epoch = 1; epoch <= config_.epochs; ++epoch) {
    switch (config_.weight_mode) {
      case WeightMode::kFixedOnes:
        if (epoch == 1) weights.assign(candidate_recon.size(), 1.0);
        break;
      case WeightMode::kInitialOnly:
        // Line 11, Eq. (5) only: initialize from reconstruction errors.
        if (epoch == 1) weights = InitialWeightsFromReconError(candidate_recon);
        break;
      case WeightMode::kDynamic:
        if (epoch == 1) {
          // Line 11, Eq. (5): initialize from reconstruction errors.
          weights = InitialWeightsFromReconError(candidate_recon);
        } else {
          // Line 13, Eq. (4): update from current classifier confidence.
          weights = UpdatedWeightsFromLogits(classifier_->Logits(anomaly_x));
        }
        break;
    }
    if (config_.trace_weights) diagnostics_.weight_history.push_back(weights);

    // Line 15: one pass of Eq. (8) minimization.
    EpochLoss loss = classifier_->TrainEpoch(train.labeled_x, train.labeled_class,
                                             normal_x, normal_cluster, anomaly_x,
                                             weights, &rng);
    diagnostics_.epoch_losses.push_back(loss);

    if (validation != nullptr) {
      auto auprc = eval::Auprc(Score(validation->x), val_labels);
      if (auprc.ok() && auprc.ValueOrDie() > best_val_auprc) {
        best_val_auprc = auprc.ValueOrDie();
        best_params.clear();
        for (nn::Matrix* p : classifier_->mlp().net().Params()) {
          best_params.push_back(*p);
        }
      }
    }
    if (hook) hook(epoch, *this);
  }

  // Restore the best-validation-epoch classifier snapshot.
  if (validation != nullptr && !best_params.empty()) {
    auto params = classifier_->mlp().net().Params();
    TARGAD_CHECK(params.size() == best_params.size());
    for (size_t i = 0; i < params.size(); ++i) *params[i] = best_params[i];
  }
  return Status::OK();
}

std::vector<double> TargAD::Score(const nn::Matrix& x) const {
  TARGAD_CHECK(fitted_) << "TargAD::Score before Fit";
  return TargetAnomalyScores(classifier_->Logits(x), m_);
}

nn::Matrix TargAD::Logits(const nn::Matrix& x) const {
  TARGAD_CHECK(fitted_) << "TargAD::Logits before Fit";
  return classifier_->Logits(x);
}

Result<nn::InferencePlan> TargAD::Freeze(nn::Dtype dtype) const {
  if (!fitted_) return Status::FailedPrecondition("TargAD::Freeze before Fit");
  return classifier_->Freeze(dtype);
}

const TargAdClassifier& TargAD::classifier() const {
  TARGAD_CHECK(fitted_) << "TargAD::classifier before Fit";
  return *classifier_;
}

Result<ThreeWayClassifier> TargAD::FitThreeWay(const data::EvalSet& validation,
                                               OodStrategy strategy) {
  if (!fitted_) return Status::FailedPrecondition("TargAD::FitThreeWay before Fit");
  TARGAD_RETURN_NOT_OK(validation.Validate());
  const nn::Matrix val_logits = classifier_->Logits(validation.x);
  return ThreeWayClassifier::Fit(val_logits, validation.kind, m_, k_, strategy);
}

Status TargAD::Save(std::ostream& out) {
  if (!fitted_) return Status::FailedPrecondition("TargAD::Save before Fit");
  const nn::MlpConfig& mlp_config = classifier_->mlp().config();
  out << "targad-v1\n";
  out << m_ << ' ' << k_ << ' ' << mlp_config.sizes.front() << '\n';
  const auto& hidden = classifier_->config().hidden;
  out << "hidden " << hidden.size();
  for (size_t h : hidden) out << ' ' << h;
  out << '\n';
  TARGAD_RETURN_NOT_OK(nn::WriteParams(out, classifier_->mlp().net()));
  if (!out) return Status::IOError("TargAD::Save stream failure");
  return Status::OK();
}

Result<TargAD> TargAD::Load(std::istream& in) {
  std::string magic;
  if (!(in >> magic) || magic != "targad-v1") {
    return Status::InvalidArgument("not a TargAD v1 model stream");
  }
  int m = 0, k = 0;
  size_t input_dim = 0;
  if (!(in >> m >> k >> input_dim)) {
    return Status::InvalidArgument("truncated TargAD header");
  }
  std::string tag;
  size_t hidden_count = 0;
  if (!(in >> tag >> hidden_count) || tag != "hidden") {
    return Status::InvalidArgument("expected 'hidden <count>'");
  }
  if (hidden_count > 64) {
    return Status::InvalidArgument("implausible hidden layer count");
  }
  std::vector<size_t> hidden(hidden_count);
  for (size_t& h : hidden) {
    if (!(in >> h)) return Status::InvalidArgument("truncated hidden sizes");
  }

  // The widths above size nothing until the parameter matrices behind
  // them have been read: one (in x out) weight and one (1 x out) bias per
  // layer, the layout MakeMlp builds. Summed in size_t: m and k near
  // INT_MAX must not overflow an int.
  std::vector<size_t> widths = {input_dim};
  widths.insert(widths.end(), hidden.begin(), hidden.end());
  widths.push_back(static_cast<size_t>(m) + static_cast<size_t>(k));
  std::vector<std::pair<size_t, size_t>> shapes;
  for (size_t i = 0; i + 1 < widths.size(); ++i) {
    shapes.emplace_back(widths[i], widths[i + 1]);
    shapes.emplace_back(1, widths[i + 1]);
  }
  TARGAD_ASSIGN_OR_RETURN(std::vector<nn::Matrix> params,
                          nn::ReadParamMatrices(in, shapes));

  TargADConfig config;
  config.classifier.hidden = hidden;
  TARGAD_ASSIGN_OR_RETURN(TargAD model, TargAD::Make(config));
  TARGAD_ASSIGN_OR_RETURN(
      TargAdClassifier clf,
      TargAdClassifier::Make(config.classifier, input_dim, m, k));
  model.classifier_ = std::make_unique<TargAdClassifier>(std::move(clf));
  const std::vector<nn::Matrix*> dst = model.classifier_->mlp().net().Params();
  TARGAD_CHECK(dst.size() == params.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    TARGAD_CHECK(dst[i]->SameShape(params[i]));
    *dst[i] = std::move(params[i]);
  }
  model.m_ = m;
  model.k_ = k;
  model.fitted_ = true;
  return model;
}

}  // namespace core
}  // namespace targad
