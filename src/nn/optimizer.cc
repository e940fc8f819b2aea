#include "nn/optimizer.h"

#include <cmath>

#include "common/logging.h"
#include "nn/kernels/kernels.h"

namespace targad {
namespace nn {

Adam::Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads, double lr,
           double beta1, double beta2, double eps)
    : params_(std::move(params)),
      grads_(std::move(grads)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  TARGAD_CHECK(params_.size() == grads_.size())
      << "Adam: params/grads size mismatch";
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    TARGAD_CHECK(params_[i]->SameShape(*grads_[i]))
        << "Adam: param/grad shape mismatch at index " << i;
    m_.emplace_back(params_[i]->rows(), params_[i]->cols(), 0.0);
    v_.emplace_back(params_[i]->rows(), params_[i]->cols(), 0.0);
  }
}

void Adam::Step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    kernels::AdamUpdate(params_[i]->size(), lr_, beta1_, beta2_, eps_, bc1,
                        bc2, grads_[i]->data().data(), m_[i].data().data(),
                        v_[i].data().data(), params_[i]->data().data());
  }
}

}  // namespace nn
}  // namespace targad
