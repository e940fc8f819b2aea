// Private contract between the dispatcher (kernels.cc) and the AVX2
// translation units: kernels_avx2.cc (float, compiled with -mavx2 -mfma) and
// kernels_avx2_double.cc (double, compiled with -mavx2 -ffp-contract=off and
// without -mfma). The float table may round differently from the scalar
// baseline; the double table may not (see kernels.h).

#ifndef TARGAD_NN_KERNELS_KERNELS_INTERNAL_H_
#define TARGAD_NN_KERNELS_KERNELS_INTERNAL_H_

#include <cstddef>

#include "nn/kernels/kernels.h"

namespace targad {
namespace nn {
namespace kernels {
namespace internal {

/// Function table for the float32 serving-dtype kernels. Any null entry
/// falls back to the scalar implementation for that primitive.
struct FloatKernels {
  void (*affine)(size_t m, size_t n, size_t k, const float* x, const float* w,
                 const float* bias, Act act, float leaky_slope,
                 float* y) = nullptr;
  void (*axpy)(size_t n, float alpha, const float* x, float* y) = nullptr;
  void (*scale)(size_t n, float alpha, float* x) = nullptr;
  float (*dot)(size_t n, const float* a, const float* b) = nullptr;
  void (*sqdists)(size_t n, size_t d, size_t k, const float* x,
                  const float* centers, const float* weights,
                  float* out) = nullptr;
};

/// Function table for the float64 training-dtype kernels. Every entry is
/// bit-identical to its scalar baseline in kernels.cc: each vector lane
/// computes one output element with the scalar loop's operations, unfused,
/// in the scalar loop's order. The NN/affine and transposed-A tiles add
/// every product and recompute, with the zero-skip as a lane mask, only a
/// tile whose sums came out holding a NaN (see kernels_avx2_double.cc).
/// All entries are set.
struct DoubleKernels {
  /// Y(m x n) = X(m x k) * W(k x n) + bias (bias may be nullptr), with no
  /// activation: the dispatcher runs the activation pass after it.
  void (*affine)(size_t m, size_t n, size_t k, const double* x,
                 const double* w, const double* bias, double* y);
  /// C(m x n) = A^T * B with A stored k x m and B stored k x n.
  void (*gemm_ta)(size_t m, size_t n, size_t k, const double* a,
                  const double* b, double* c);
  /// C(m x n) = A(m x k) * B^T with B stored n x k.
  void (*gemm_tb)(size_t m, size_t n, size_t k, const double* a,
                  const double* b, double* c);
  /// Act::kReLU in place: x = x <= 0 ? +0 : x.
  void (*relu)(size_t n, double* x);
  /// ActivationBackward for kReLU: g *= ref > 0 ? 1 : 0.
  void (*relu_backward)(size_t n, const double* ref, double* g);
  void (*axpy)(size_t n, double alpha, const double* x, double* y);
  void (*col_sum)(size_t m, size_t n, const double* a, double* out);
  void (*adam)(size_t n, double lr, double beta1, double beta2, double eps,
               double bias_c1, double bias_c2, const double* g, double* m,
               double* v, double* p);
  /// SquaredDistances without weights (the k-means form); the weighted GMM
  /// form stays on the scalar loop.
  void (*sqdists)(size_t n, size_t d, size_t k, const double* x,
                  const double* centers, double* out);
};

/// The AVX2 tables, or nullptr when this build carries no AVX2 code
/// (non-x86 target or TARGAD_ENABLE_AVX2=OFF). Runtime CPU support is the
/// dispatcher's job; these only report what was compiled in.
const FloatKernels* Avx2FloatKernels();
const DoubleKernels* Avx2DoubleKernels();

}  // namespace internal
}  // namespace kernels
}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_KERNELS_KERNELS_INTERNAL_H_
