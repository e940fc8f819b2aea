#include "nn/kernels/kernels.h"

#include <algorithm>
#include <cmath>

#include "common/hot_path.h"
#include "common/logging.h"
#include "nn/kernels/kernels_internal.h"

namespace targad {
namespace nn {
namespace kernels {

namespace {

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// The AVX2 table when this build carries it and the CPU has AVX2, else
// nullptr: the scalar backend. There is no run-time override; a scalar-only
// binary is a -DTARGAD_ENABLE_AVX2=OFF build.
const internal::Avx2Kernels* MakeState() {
  return CpuHasAvx2() ? internal::Avx2Table() : nullptr;
}

// Selected once on first kernel use; the test hook below changes it from a
// single thread before concurrent use (documented in kernels.h).
const internal::Avx2Kernels*& State() {
  static const internal::Avx2Kernels* avx2 = MakeState();
  return avx2;
}

// ---- Scalar baselines -----------------------------------------------------
// These reproduce the pre-kernel-layer MatrixT loops exactly: same loop
// order, same zero-skips, same expression shapes. They are the scalar
// backend, the fallback for every primitive without an AVX2 kernel, and
// the reference the AVX2 kernels must match bit for bit.

// C(m x n) = A^T * B with A stored k x m and B stored k x n (k is the
// shared dimension). The historical form walked the shared dimension
// outermost; here each output row kk walks the shared dimension itself,
// which visits the exact same per-element contributions (a[i*m + kk] *
// b_row[j], i ascending, zero-skip on the A element) in the exact same
// order, and so gives the same bits. This is the dW = x^T g GEMM of
// Linear::Backward.
void ScalarGemmTa(size_t m, size_t n, size_t k, const double* a,
                  const double* b, double* c) {
  for (size_t kk = 0; kk < m; ++kk) {
    double* c_row = c + kk * n;
    std::fill(c_row, c_row + n, 0.0);
    for (size_t i = 0; i < k; ++i) {
      const double av = a[i * m + kk];
      if (av == 0.0) continue;
      const double* b_row = b + i * n;
      for (size_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
    }
  }
}

// C = A * B^T. B is stored n x k, C is m x n; a straight dot product per
// element, k ascending — MatrixT::MatMulTranspose.
void ScalarGemmTb(size_t m, size_t n, size_t k, const double* a,
                  const double* b, double* c) {
  for (size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* c_row = c + i * n;
    for (size_t j = 0; j < n; ++j) {
      const double* b_row = b + j * k;
      double acc = 0.0;
      for (size_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
      c_row[j] = acc;
    }
  }
}

template <typename T>
void ApplyActivationRow(Act act, T leaky_slope, size_t n, T* row) {
  switch (act) {
    case Act::kNone:
      return;
    case Act::kReLU:
      for (size_t j = 0; j < n; ++j) {
        if (row[j] <= T(0)) row[j] = T(0);
      }
      return;
    case Act::kLeakyReLU:
      for (size_t j = 0; j < n; ++j) {
        if (row[j] < T(0)) row[j] *= leaky_slope;
      }
      return;
    case Act::kSigmoid:
      for (size_t j = 0; j < n; ++j) {
        // Numerically stable split (matches Sigmoid::Infer).
        const T v = row[j];
        if (v >= T(0)) {
          row[j] = T(1) / (T(1) + std::exp(-v));
        } else {
          const T e = std::exp(v);
          row[j] = e / (T(1) + e);
        }
      }
      return;
    case Act::kTanh:
      for (size_t j = 0; j < n; ++j) row[j] = std::tanh(row[j]);
      return;
  }
}

// Y = act(X * W + bias); also Gemm NN (bias null, kNone). i-k-j order
// streams both operands row-major; the zero-skip keeps ReLU-sparse
// activations cheap and matches the old MatrixT::MatMul bits.
template <typename T>
void ScalarAffine(size_t m, size_t n, size_t k, const T* x, const T* w,
                  const T* bias, Act act, T leaky_slope, T* y) {
  for (size_t i = 0; i < m; ++i) {
    const T* x_row = x + i * k;
    T* y_row = y + i * n;
    std::fill(y_row, y_row + n, T(0));
    for (size_t kk = 0; kk < k; ++kk) {
      const T xv = x_row[kk];
      if (xv == T(0)) continue;
      const T* w_row = w + kk * n;
      for (size_t j = 0; j < n; ++j) y_row[j] += xv * w_row[j];
    }
    if (bias != nullptr) {
      for (size_t j = 0; j < n; ++j) y_row[j] += bias[j];
    }
    ApplyActivationRow(act, leaky_slope, n, y_row);
  }
}

// The float and double FusedAffineActivation, given the AVX2 affine for T
// (nullptr on the scalar backend). The AVX2 affine applies the activations
// it computes in registers; sigmoid and tanh call libm, so they run as the
// scalar pass over its output.
template <typename T>
void Affine(internal::AffineFn<T> avx2, size_t m, size_t n, size_t k,
            const T* x, const T* w, const T* bias, Act act, T leaky_slope,
            T* y) {
  if (avx2 == nullptr) {
    ScalarAffine(m, n, k, x, w, bias, act, leaky_slope, y);
    return;
  }
  avx2(m, n, k, x, w, bias, act, leaky_slope, y);
  if (act == Act::kSigmoid || act == Act::kTanh) {
    ApplyActivationRow(act, leaky_slope, m * n, y);
  }
}

double SquaredDistancePair(size_t d, const double* a, const double* b,
                           const double* weights) {
  double acc = 0.0;
  if (weights == nullptr) {
    for (size_t j = 0; j < d; ++j) {
      const double diff = a[j] - b[j];
      acc += diff * diff;
    }
  } else {
    for (size_t j = 0; j < d; ++j) {
      const double diff = a[j] - b[j];
      acc += diff * diff * weights[j];
    }
  }
  return acc;
}

}  // namespace

Backend ActiveBackend() {
  return State() != nullptr ? Backend::kAvx2 : Backend::kScalar;
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
  }
  return "?";
}

const char* BackendName() { return BackendName(ActiveBackend()); }

const TilingConfig& Tiling() {
  static const TilingConfig config;
  return config;
}

bool SetBackendForTest(Backend backend) {
  const internal::Avx2Kernels* avx2 =
      backend == Backend::kAvx2 ? MakeState() : nullptr;
  if (backend == Backend::kAvx2 && avx2 == nullptr) return false;
  State() = avx2;
  return true;
}

TARGAD_HOT_PATH void Gemm(Trans trans_a, Trans trans_b, size_t m, size_t n,
                          size_t k, const double* a, const double* b,
                          double* c) {
  TARGAD_CHECK(trans_a == Trans::kNo || trans_b == Trans::kNo)
      << "Gemm does not transpose both operands";
  if (trans_a == Trans::kNo && trans_b == Trans::kNo) {
    FusedAffineActivation(m, n, k, a, b, nullptr, Act::kNone, 0.0, c);
    return;
  }
  if (const internal::Avx2Kernels* avx2 = State(); avx2 != nullptr) {
    if (trans_a == Trans::kYes) {
      avx2->gemm_ta(m, n, k, a, b, c);
    } else {
      avx2->gemm_tb(m, n, k, a, b, c);
    }
    return;
  }
  if (trans_a == Trans::kYes) {
    ScalarGemmTa(m, n, k, a, b, c);
  } else {
    ScalarGemmTb(m, n, k, a, b, c);
  }
}

TARGAD_HOT_PATH void FusedAffineActivation(size_t m, size_t n, size_t k,
                                           const float* x, const float* w,
                                           const float* bias, Act act,
                                           float leaky_slope, float* y) {
  const internal::Avx2Kernels* avx2 = State();
  Affine(avx2 != nullptr ? avx2->affine_f32 : nullptr, m, n, k, x, w, bias,
         act, leaky_slope, y);
}

TARGAD_HOT_PATH void FusedAffineActivation(size_t m, size_t n, size_t k,
                                           const double* x, const double* w,
                                           const double* bias, Act act,
                                           double leaky_slope, double* y) {
  const internal::Avx2Kernels* avx2 = State();
  Affine(avx2 != nullptr ? avx2->affine_f64 : nullptr, m, n, k, x, w, bias,
         act, leaky_slope, y);
}

TARGAD_HOT_PATH void Axpy(size_t n, double alpha, const double* x,
                          double* y) {
  if (const internal::Avx2Kernels* avx2 = State(); avx2 != nullptr) {
    avx2->axpy(n, alpha, x, y);
    return;
  }
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

TARGAD_HOT_PATH void Scale(size_t n, double alpha, double* x) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

TARGAD_HOT_PATH void Hadamard(size_t n, const double* x, double* y) {
  for (size_t i = 0; i < n; ++i) y[i] *= x[i];
}

TARGAD_HOT_PATH void ApplyActivation(Act act, double leaky_slope, size_t n,
                                     double* x) {
  if (const internal::Avx2Kernels* avx2 = State();
      avx2 != nullptr && act == Act::kReLU) {
    avx2->relu(n, x);
    return;
  }
  ApplyActivationRow(act, leaky_slope, n, x);
}

TARGAD_HOT_PATH void ActivationBackward(Act act, double leaky_slope, size_t n,
                                        const double* ref, double* g) {
  switch (act) {
    case Act::kNone:
      return;
    case Act::kReLU:
      // The multiply-by-{0,1} form (not an assignment to zero) preserves
      // the legacy mask-Hadamard bits: 0.0 * g keeps g's sign on the zero.
      if (const internal::Avx2Kernels* avx2 = State(); avx2 != nullptr) {
        avx2->relu_backward(n, ref, g);
        return;
      }
      for (size_t i = 0; i < n; ++i) g[i] *= ref[i] > 0.0 ? 1.0 : 0.0;
      return;
    case Act::kLeakyReLU:
      for (size_t i = 0; i < n; ++i) {
        if (ref[i] < 0.0) g[i] *= leaky_slope;
      }
      return;
    case Act::kSigmoid:
      for (size_t i = 0; i < n; ++i) {
        const double s = ref[i];
        g[i] *= s * (1.0 - s);
      }
      return;
    case Act::kTanh:
      for (size_t i = 0; i < n; ++i) {
        const double t = ref[i];
        g[i] *= 1.0 - t * t;
      }
      return;
  }
}

TARGAD_HOT_PATH void ScaledDiff(size_t n, double alpha, const double* a,
                                const double* b, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = alpha * (a[i] - b[i]);
}

TARGAD_HOT_PATH void AdamUpdate(size_t n, double lr, double beta1,
                                double beta2, double eps, double bias_c1,
                                double bias_c2, const double* g, double* m,
                                double* v, double* p) {
  // Expression shapes match the historical optimizer loop exactly (see the
  // header comment on why this cannot be decomposed into Scale/Axpy).
  if (const internal::Avx2Kernels* avx2 = State(); avx2 != nullptr) {
    avx2->adam(n, lr, beta1, beta2, eps, bias_c1, bias_c2, g, m, v, p);
    return;
  }
  for (size_t j = 0; j < n; ++j) {
    m[j] = beta1 * m[j] + (1.0 - beta1) * g[j];
    v[j] = beta2 * v[j] + (1.0 - beta2) * g[j] * g[j];
    const double m_hat = m[j] / bias_c1;
    const double v_hat = v[j] / bias_c2;
    p[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

TARGAD_HOT_PATH void ColReduceSum(size_t m, size_t n, const double* a,
                                  double* out) {
  if (const internal::Avx2Kernels* avx2 = State(); avx2 != nullptr) {
    avx2->col_sum(m, n, a, out);
    return;
  }
  std::fill(out, out + n, 0.0);
  for (size_t i = 0; i < m; ++i) {
    const double* row = a + i * n;
    for (size_t j = 0; j < n; ++j) out[j] += row[j];
  }
}

TARGAD_HOT_PATH double Dot(size_t n, const double* a, const double* b) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

TARGAD_HOT_PATH double SquaredDistance(size_t d, const double* a,
                                       const double* b,
                                       const double* weights) {
  return SquaredDistancePair(d, a, b, weights);
}

TARGAD_HOT_PATH void SquaredDistances(size_t n, size_t d, size_t k,
                                      const double* x, const double* centers,
                                      const double* weights, double* out) {
  if (const internal::Avx2Kernels* avx2 = State();
      avx2 != nullptr && weights == nullptr) {
    avx2->sqdists(n, d, k, x, centers, out);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const double* x_row = x + i * d;
    double* out_row = out + i * k;
    for (size_t c = 0; c < k; ++c) {
      out_row[c] =
          SquaredDistancePair(d, x_row, centers + c * d,
                              weights == nullptr ? nullptr : weights + c * d);
    }
  }
}

TARGAD_HOT_PATH void RowwiseSquaredDistances(size_t m, size_t n,
                                             const double* a, const double* b,
                                             double* out) {
  for (size_t i = 0; i < m; ++i) {
    out[i] = SquaredDistancePair(n, a + i * n, b + i * n, nullptr);
  }
}

TARGAD_HOT_PATH double MseLossGrad(size_t n, const double* pred,
                                   const double* target, double inv_n,
                                   double* grad) {
  // Flat-order total reduction; must stay serial (see header).
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = pred[i] - target[i];
    total += d * d;
    grad[i] = 2.0 * d * inv_n;
  }
  return total;
}

}  // namespace kernels
}  // namespace nn
}  // namespace targad
