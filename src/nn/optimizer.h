// The optimizer. The paper trains all networks with Adam (Section IV-C),
// and so does every network in the library.

#ifndef TARGAD_NN_OPTIMIZER_H_
#define TARGAD_NN_OPTIMIZER_H_

#include <vector>

#include "nn/matrix.h"

namespace targad {
namespace nn {

/// Adam (Kingma & Ba, 2015) with bias correction. Consumes the
/// parameter/gradient pairs registered at construction and advances the
/// parameters on each Step().
class Adam {
 public:
  Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads, double lr,
       double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

  /// Applies one update using the currently accumulated gradients.
  void Step();

 private:
  std::vector<Matrix*> params_;
  std::vector<Matrix*> grads_;
  double lr_;
  double beta1_, beta2_, eps_;
  long t_ = 0;  // NOLINT(runtime/int)
  std::vector<Matrix> m_, v_;
};

}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_OPTIMIZER_H_
