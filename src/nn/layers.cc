#include "nn/layers.h"

#include <cmath>

#include "common/logging.h"
#include "nn/init.h"
#include "nn/kernels/kernels.h"

// Every dense op here — forward GEMMs, backward GEMMs, bias reductions,
// activation derivatives, mask application — routes through nn/kernels. The
// kernel expression shapes reproduce the historical layer loops exactly; the
// double bit-identity contract (training_bitexact_test) therefore holds on
// any backend.

namespace targad {
namespace nn {

Linear::Linear(size_t in_features, size_t out_features, Rng* rng)
    : w_(in_features, out_features),
      b_(1, out_features, 0.0),
      gw_(in_features, out_features, 0.0),
      gb_(1, out_features, 0.0) {
  HeUniform(&w_, in_features, rng);
}

Matrix Linear::Forward(RowBlock x) {
  TARGAD_CHECK(x.cols() == w_.rows())
      << "Linear: input has " << x.cols() << " features, expected " << w_.rows();
  input_ = x.ToMatrix();  // Backward needs the batch after the view dies.
  Matrix y(x.rows(), w_.cols());
  kernels::FusedAffineActivation(x.rows(), w_.cols(), x.cols(), x.data(),
                                 w_.data().data(), b_.data().data(),
                                 kernels::Act::kNone, 0.0, y.data().data());
  return y;
}

Matrix Linear::Infer(RowBlock x) const {
  TARGAD_CHECK(x.cols() == w_.rows())
      << "Linear: input has " << x.cols() << " features, expected " << w_.rows();
  Matrix y(x.rows(), w_.cols());
  kernels::FusedAffineActivation(x.rows(), w_.cols(), x.cols(), x.data(),
                                 w_.data().data(), b_.data().data(),
                                 kernels::Act::kNone, 0.0, y.data().data());
  return y;
}

void Linear::BackwardParams(const Matrix& grad_out) {
  // dW += x^T g ; db += colsum(g).
  gw_.AddInPlace(input_.TransposeMatMul(grad_out));
  std::vector<double> col_sums(grad_out.cols(), 0.0);
  kernels::ColReduceSum(grad_out.rows(), grad_out.cols(),
                        grad_out.data().data(), col_sums.data());
  kernels::Axpy(col_sums.size(), 1.0, col_sums.data(), gb_.data().data());
}

Matrix Linear::Backward(const Matrix& grad_out) {
  BackwardParams(grad_out);
  return grad_out.MatMulTranspose(w_);  // dx = g W^T.
}

Matrix ReLU::Forward(RowBlock x) {
  input_ = x.ToMatrix();
  Matrix y = input_;
  kernels::ApplyActivation(kernels::Act::kReLU, 0.0, y.size(),
                           y.data().data());
  return y;
}

Matrix ReLU::Infer(RowBlock x) const {
  Matrix y = x.ToMatrix();
  kernels::ApplyActivation(kernels::Act::kReLU, 0.0, y.size(),
                           y.data().data());
  return y;
}

Matrix ReLU::Backward(const Matrix& grad_out) {
  Matrix g = grad_out;
  kernels::ActivationBackward(kernels::Act::kReLU, 0.0, g.size(),
                              input_.data().data(), g.data().data());
  return g;
}

Matrix LeakyReLU::Forward(RowBlock x) {
  input_ = x.ToMatrix();
  Matrix y = input_;
  kernels::ApplyActivation(kernels::Act::kLeakyReLU, slope_, y.size(),
                           y.data().data());
  return y;
}

Matrix LeakyReLU::Infer(RowBlock x) const {
  Matrix y = x.ToMatrix();
  kernels::ApplyActivation(kernels::Act::kLeakyReLU, slope_, y.size(),
                           y.data().data());
  return y;
}

Matrix LeakyReLU::Backward(const Matrix& grad_out) {
  Matrix g = grad_out;
  kernels::ActivationBackward(kernels::Act::kLeakyReLU, slope_, g.size(),
                              input_.data().data(), g.data().data());
  return g;
}

Matrix Sigmoid::Forward(RowBlock x) {
  output_ = x.ToMatrix();
  kernels::ApplyActivation(kernels::Act::kSigmoid, 0.0, output_.size(),
                           output_.data().data());
  return output_;
}

Matrix Sigmoid::Infer(RowBlock x) const {
  Matrix y = x.ToMatrix();
  kernels::ApplyActivation(kernels::Act::kSigmoid, 0.0, y.size(),
                           y.data().data());
  return y;
}

Matrix Sigmoid::Backward(const Matrix& grad_out) {
  Matrix g = grad_out;
  kernels::ActivationBackward(kernels::Act::kSigmoid, 0.0, g.size(),
                              output_.data().data(), g.data().data());
  return g;
}

Dropout::Dropout(double rate, uint64_t seed) : rate_(rate), rng_(seed) {
  TARGAD_CHECK(rate >= 0.0 && rate < 1.0) << "Dropout rate must be in [0, 1)";
}

Matrix Dropout::Forward(RowBlock x) {
  if (!training_ || rate_ == 0.0) {
    mask_ = Matrix();
    return x.ToMatrix();
  }
  const double keep = 1.0 - rate_;
  const double scale = 1.0 / keep;
  // Single pre-pass: the whole mask is drawn in flat index order before any
  // arithmetic touches the batch, so the RNG stream — and with it the golden
  // bits — does not depend on how the kernels walk the batch.
  mask_ = Matrix(x.rows(), x.cols());
  for (size_t i = 0; i < mask_.size(); ++i) {
    mask_.data()[i] = rng_.Bernoulli(keep) ? scale : 0.0;
  }
  Matrix y = x.ToMatrix();
  kernels::Hadamard(y.size(), mask_.data().data(), y.data().data());
  return y;
}

Matrix Dropout::Backward(const Matrix& grad_out) {
  if (mask_.empty()) return grad_out;  // Eval mode / zero rate.
  Matrix g = grad_out;
  g.HadamardInPlace(mask_);
  return g;
}

Matrix Tanh::Forward(RowBlock x) {
  output_ = x.ToMatrix();
  kernels::ApplyActivation(kernels::Act::kTanh, 0.0, output_.size(),
                           output_.data().data());
  return output_;
}

Matrix Tanh::Infer(RowBlock x) const {
  Matrix y = x.ToMatrix();
  kernels::ApplyActivation(kernels::Act::kTanh, 0.0, y.size(),
                           y.data().data());
  return y;
}

Matrix Tanh::Backward(const Matrix& grad_out) {
  Matrix g = grad_out;
  kernels::ActivationBackward(kernels::Act::kTanh, 0.0, g.size(),
                              output_.data().data(), g.data().data());
  return g;
}

}  // namespace nn
}  // namespace targad
