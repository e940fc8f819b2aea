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

/// Function table for the float64 training-dtype GEMMs. Every entry is
/// bit-identical to its scalar baseline in kernels.cc: each vector lane
/// computes one output element with the scalar loop's multiplies and adds,
/// unfused, in the scalar loop's order, and the zero-skip on an A element
/// is a lane mask. All entries are set.
struct DoubleKernels {
  /// Y(m x n) = X(m x k) * W(k x n) + bias (bias may be nullptr), with no
  /// activation: the dispatcher runs the scalar activation pass after it.
  void (*affine)(size_t m, size_t n, size_t k, const double* x,
                 const double* w, const double* bias, double* y);
  /// C(m x n) = A^T * B with A stored k x m and B stored k x n.
  void (*gemm_ta)(size_t m, size_t n, size_t k, const double* a,
                  const double* b, double* c);
  /// C(m x n) = A(m x k) * B^T with B stored n x k.
  void (*gemm_tb)(size_t m, size_t n, size_t k, const double* a,
                  const double* b, double* c);
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
