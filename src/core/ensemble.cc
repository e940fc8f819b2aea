#include "core/ensemble.h"

#include "common/logging.h"
#include "common/thread_pool.h"

namespace targad {
namespace core {

Result<TargAdEnsemble> TargAdEnsemble::Make(const EnsembleConfig& config) {
  if (config.size < 1) {
    return Status::InvalidArgument("ensemble size must be >= 1, got ",
                                   config.size);
  }
  // Validate the member configuration once up front.
  TARGAD_RETURN_NOT_OK(TargAD::Make(config.base).status());
  TargAdEnsemble ensemble;
  ensemble.config_ = config;
  return ensemble;
}

Status TargAdEnsemble::Fit(const data::TrainingSet& train,
                           const data::EvalSet* validation) {
  TARGAD_RETURN_NOT_OK(train.Validate());
  members_.clear();
  members_.resize(static_cast<size_t>(config_.size));
  std::vector<Status> statuses(members_.size(), Status::OK());

  auto fit_one = [&](size_t i) {
    TargADConfig member_config = config_.base;
    member_config.seed = config_.base.seed + i;
    // Members must not start a nested pool (elbow fits or autoencoders)
    // inside this one.
    if (config_.parallel && config_.size > 1) {
      member_config.selection.parallel = false;
    }
    auto made = TargAD::Make(member_config);
    if (!made.ok()) {
      statuses[i] = made.status();
      return;
    }
    members_[i] = std::make_unique<TargAD>(std::move(made).ValueOrDie());
    statuses[i] = validation != nullptr
                      ? members_[i]->FitWithValidation(train, *validation)
                      : members_[i]->Fit(train);
  };

  ThreadPool::ParallelFor(members_.size(), fit_one, config_.parallel ? 0 : 1);
  for (const Status& st : statuses) TARGAD_RETURN_NOT_OK(st);
  // Logit averaging needs a consistent m + k across members. Differently
  // seeded elbow selections can disagree on k; insist on agreement and
  // point the user at a fixed selection.k when they do not.
  for (size_t i = 1; i < members_.size(); ++i) {
    if (members_[i]->k() != members_[0]->k()) {
      return Status::FailedPrecondition(
          "ensemble members selected different k (", members_[0]->k(), " vs ",
          members_[i]->k(), "); set selection.k explicitly");
    }
  }
  fitted_ = true;
  return Status::OK();
}

std::vector<double> TargAdEnsemble::Score(const nn::Matrix& x) const {
  TARGAD_CHECK(fitted_) << "TargAdEnsemble::Score before Fit";
  std::vector<double> mean(x.rows(), 0.0);
  for (const auto& member : members_) {
    const std::vector<double> scores = member->Score(x);
    for (size_t i = 0; i < scores.size(); ++i) mean[i] += scores[i];
  }
  const double inv = 1.0 / static_cast<double>(members_.size());
  for (double& v : mean) v *= inv;
  return mean;
}

nn::Matrix TargAdEnsemble::Logits(const nn::Matrix& x) const {
  TARGAD_CHECK(fitted_) << "TargAdEnsemble::Logits before Fit";
  nn::Matrix mean = members_[0]->Logits(x);
  for (size_t i = 1; i < members_.size(); ++i) {
    mean.AddInPlace(members_[i]->Logits(x));
  }
  mean.MulInPlace(1.0 / static_cast<double>(members_.size()));
  return mean;
}

}  // namespace core
}  // namespace targad
