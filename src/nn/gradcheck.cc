#include "nn/gradcheck.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace targad {
namespace nn {

namespace {
double RelError(double a, double b) {
  return std::fabs(a - b) / std::max(1e-8, std::fabs(a) + std::fabs(b));
}
}  // namespace

double MaxParamGradError(Sequential* net, const Matrix& x,
                         const OutputLossFn& loss_fn, double h,
                         size_t max_checks) {
  // Analytic gradients.
  net->ZeroGrads();
  Matrix out = net->Forward(x);
  LossResult lr = loss_fn(out);
  net->BackwardParams(lr.grad);

  std::vector<Matrix*> params = net->Params();
  std::vector<Matrix*> grads = net->Grads();

  size_t total = 0;
  for (Matrix* p : params) total += p->size();
  const size_t stride = std::max<size_t>(1, total / std::max<size_t>(1, max_checks));

  double max_err = 0.0;
  size_t flat = 0;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Matrix* p = params[pi];
    const Matrix* g = grads[pi];
    for (size_t j = 0; j < p->size(); ++j, ++flat) {
      if (flat % stride != 0) continue;
      const double orig = p->data()[j];
      p->data()[j] = orig + h;
      const double lp = loss_fn(net->Forward(x)).loss;
      p->data()[j] = orig - h;
      const double lm = loss_fn(net->Forward(x)).loss;
      p->data()[j] = orig;
      const double numeric = (lp - lm) / (2.0 * h);
      max_err = std::max(max_err, RelError(g->data()[j], numeric));
    }
  }
  // Restore caches for any subsequent use.
  net->Forward(x);
  return max_err;
}

double MaxInputGradError(Sequential* net, const Matrix& x,
                         const OutputLossFn& loss_fn, double h) {
  net->ZeroGrads();
  Matrix out = net->Forward(x);
  LossResult lr = loss_fn(out);
  Matrix gin = net->Backward(lr.grad);

  double max_err = 0.0;
  Matrix xp = x;
  for (size_t i = 0; i < x.size(); ++i) {
    const double orig = xp.data()[i];
    xp.data()[i] = orig + h;
    const double lp = loss_fn(net->Forward(xp)).loss;
    xp.data()[i] = orig - h;
    const double lm = loss_fn(net->Forward(xp)).loss;
    xp.data()[i] = orig;
    const double numeric = (lp - lm) / (2.0 * h);
    max_err = std::max(max_err, RelError(gin.data()[i], numeric));
  }
  return max_err;
}

}  // namespace nn
}  // namespace targad
