// Private contract between the dispatcher (kernels.cc) and the AVX2
// translation unit, kernels_avx2.cc (compiled with -mavx2 alone, under
// src/'s -ffp-contract=off). Every entry is bit-identical to its scalar
// baseline in kernels.cc (see kernels.h).

#ifndef TARGAD_NN_KERNELS_KERNELS_INTERNAL_H_
#define TARGAD_NN_KERNELS_KERNELS_INTERNAL_H_

#include <cstddef>

#include "nn/kernels/kernels.h"

namespace targad {
namespace nn {
namespace kernels {
namespace internal {

/// Y(m x n) = X(m x k) * W(k x n) + bias (bias may be nullptr), then act
/// when it is kNone, kReLU or kLeakyReLU. For kSigmoid and kTanh, which
/// call libm, it stores X * W + bias and the dispatcher runs the activation
/// pass over it.
template <typename T>
using AffineFn = void (*)(size_t m, size_t n, size_t k, const T* x,
                          const T* w, const T* bias, Act act, T leaky_slope,
                          T* y);

/// Function table of the AVX2 backend. Each vector lane computes one output
/// element with the scalar loop's operations, unfused, in the scalar loop's
/// order. The affine and transposed-A tiles add every product and
/// recompute, with the zero-skip as a lane mask, only a tile whose sums came
/// out holding a NaN (see kernels_avx2.cc). All entries are set.
struct Avx2Kernels {
  /// The fused affine in both dtypes; the float one is the only float
  /// kernel, since a frozen float32 network runs nothing else.
  AffineFn<float> affine_f32;
  AffineFn<double> affine_f64;
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

/// The AVX2 table, or nullptr when this build carries no AVX2 code
/// (non-x86 target or TARGAD_ENABLE_AVX2=OFF). Runtime CPU support is the
/// dispatcher's job; this only reports what was compiled in.
const Avx2Kernels* Avx2Table();

}  // namespace internal
}  // namespace kernels
}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_KERNELS_KERNELS_INTERNAL_H_
