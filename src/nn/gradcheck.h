// Finite-difference gradient verification for the analytic backward passes.
// Used only by the test suite.

#ifndef TARGAD_NN_GRADCHECK_H_
#define TARGAD_NN_GRADCHECK_H_

#include <functional>

#include "nn/losses.h"
#include "nn/sequential.h"

namespace targad {
namespace nn {

/// Computes a scalar loss and its gradient with respect to the network
/// output. The function must be deterministic and independent of network
/// parameters except through the output.
using OutputLossFn = std::function<LossResult(const Matrix& output)>;

/// Verifies dLoss/dParams of `net` (from Sequential::BackwardParams) under
/// `loss_fn` at input `x` against central finite differences with step `h`. Returns the maximum relative
/// error max(|analytic - numeric| / max(1e-8, |analytic| + |numeric|)) over
/// all parameters (or a deterministic subsample of `max_checks` of them).
double MaxParamGradError(Sequential* net, const Matrix& x,
                         const OutputLossFn& loss_fn, double h = 1e-5,
                         size_t max_checks = 256);

/// Verifies dLoss/dInput against finite differences; same error measure.
double MaxInputGradError(Sequential* net, const Matrix& x,
                         const OutputLossFn& loss_fn, double h = 1e-5);

}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_GRADCHECK_H_
